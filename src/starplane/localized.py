"""Rational functions with denominators restricted to powers of a fixed phi.

LocalizedFn represents numerator / phi^power.  The representation is kept
reduced (phi does not divide the numerator while power > 0), which makes
structural equality agree with cross-multiplication equality.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotDivisible, UsageError
from .poly import Poly2


class LocalizedFn:
    __slots__ = ("num", "power", "phi")

    def __init__(self, num, power: int, phi: Poly2):
        if isinstance(num, (int, Fraction)):
            num = Poly2.const(num)
        if phi.is_zero():
            raise UsageError("phi must be nonzero")
        if power < 0:
            raise ValueError("power must be nonnegative")
        # reduce
        if num.is_zero():
            power = 0
        else:
            while power > 0:
                try:
                    num = num.exact_div(phi)
                except NotDivisible:
                    break
                power -= 1
        self.num = num
        self.power = power
        self.phi = phi

    @classmethod
    def one_over_phi(cls, phi, power: int = 1):
        return cls(Poly2.const(1), power, phi)

    def _coerce(self, other):
        if isinstance(other, LocalizedFn):
            if other.phi != self.phi:
                raise ValueError("mixed localizations (different phi)")
            return other
        if isinstance(other, (int, Fraction, Poly2)):
            return LocalizedFn(other if isinstance(other, Poly2) else Poly2.const(other), 0, self.phi)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # cross-multiplication; equivalent to structural equality on reduced forms
        return self.num * o.phi ** o.power == o.num * self.phi ** self.power

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = max(self.power, o.power)
        num = self.num * self.phi ** (m - self.power) + o.num * self.phi ** (m - o.power)
        return LocalizedFn(num, m, self.phi)

    __radd__ = __add__

    def __neg__(self):
        return LocalizedFn(-self.num, self.power, self.phi)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LocalizedFn(self.num * other, self.power, self.phi)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LocalizedFn(self.num * o.num, self.power + o.power, self.phi)

    __rmul__ = __mul__

    def div_phi(self, n: int = 1) -> "LocalizedFn":
        """Divide by phi^n (just raises the denominator power)."""
        return LocalizedFn(self.num, self.power + n, self.phi)

    def dx(self, n: int = 1) -> "LocalizedFn":
        out = self
        for _ in range(n):
            out = out._d1("x")
        return out

    def dy(self, n: int = 1) -> "LocalizedFn":
        out = self
        for _ in range(n):
            out = out._d1("y")
        return out

    def _d1(self, axis):
        dn = self.num.dx() if axis == "x" else self.num.dy()
        if self.power == 0:
            return LocalizedFn(dn, 0, self.phi)
        dphi = self.phi.dx() if axis == "x" else self.phi.dy()
        num = dn * self.phi - self.num * dphi * self.power
        return LocalizedFn(num, self.power + 1, self.phi)

    def __repr__(self):
        if self.power == 0:
            return f"({self.num})"
        return f"({self.num})/phi^{self.power}"
