"""Rational functions with denominators restricted to powers of a fixed phi.

LocalizedFn represents numerator / phi^power.  As with every operator's
integer form, a LocalizedFn need not be in lowest terms, so == cross-multiplies.
No step divides except div_phi, which divides by phi exactly where phi divides
the numerator.  reduced() gives the lowest terms form.  Documents print that
form, so they do not depend on how a value was reached.
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
        self.num = num
        self.power = power if num else 0
        self.phi = phi

    @classmethod
    def one_over_phi(cls, phi):
        return cls(1, 1, phi)

    def _coerce(self, other):
        if isinstance(other, LocalizedFn):
            if other.phi != self.phi:
                raise ValueError("mixed localizations (different phi)")
            return other
        if isinstance(other, (int, Fraction, Poly2)):
            return LocalizedFn(other, 0, self.phi)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def _over(self, power: int) -> Poly2:
        """The numerator over phi^power, power >= self.power: lifted only when they differ."""
        return self.num if power == self.power else self.num * self.phi ** (power - self.power)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = max(self.power, o.power)
        return self._over(m) == o._over(m)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = max(self.power, o.power)
        return LocalizedFn(self._over(m) + o._over(m), m, self.phi)

    def __neg__(self):
        return LocalizedFn(-self.num, self.power, self.phi)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LocalizedFn(self.num * other, self.power, self.phi)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LocalizedFn(self.num * o.num, self.power + o.power, self.phi)

    def reduced(self) -> "LocalizedFn":
        """The same value in lowest terms: phi does not divide num while power > 0."""
        num, power = self.num, self.power
        while power:
            try:
                num = num.exact_div(self.phi)
            except NotDivisible:
                break
            power -= 1
        return LocalizedFn(num, power, self.phi)

    def div_phi(self) -> "LocalizedFn":
        """self / phi, divided out of the numerator where phi divides it."""
        return LocalizedFn(self.num, self.power + 1, self.phi).reduced()

    def dy(self, n: int = 1) -> "LocalizedFn":
        """d^n/dy^n by the quotient rule, which raises a nonzero power by one per step."""
        num, power, phi = self.num, self.power, self.phi
        dphi = phi.dy()
        for _ in range(n):
            if power:
                num, power = num.dy() * phi - num * dphi * power, power + 1
            else:
                num = num.dy()
        return LocalizedFn(num, power, phi)

    def __repr__(self):
        if self.power == 0:
            return f"({self.num})"
        return f"({self.num})/phi^{self.power}"
