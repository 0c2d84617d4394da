"""Truncated formal series in the deformation parameter h.

HSeries is ring-agnostic: coefficients just need +, - and *, which Poly2
and LocalizedFn both provide.  All operations truncate consistently at the
stated order.  dy acts coefficientwise.
"""

from __future__ import annotations


class HSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = list(coeffs)
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int):
        zero = value * 0
        return cls(order, [value] + [zero] * order)

    def __getitem__(self, k):
        return self.coeffs[k]

    def __eq__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other):
        n = min(self.order, other.order)
        return HSeries(n, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other):
        n = min(self.order, other.order)
        return HSeries(n, [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self):
        return HSeries(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, HSeries):
            # scalar / ring element
            return HSeries(self.order, [c * other for c in self.coeffs])
        n = min(self.order, other.order)
        zero = self.coeffs[0] * 0
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if b:
                    out[i + j] = out[i + j] + a * b
        return HSeries(n, out)

    def dy(self, n: int = 1) -> "HSeries":
        return HSeries(self.order, [c.dy(n) for c in self.coeffs])

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "HSeries[" + ", ".join(repr(c) for c in self.coeffs) + "]"
