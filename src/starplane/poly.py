"""Sparse exact-rational bivariate polynomials in x, y.

A Poly2 keeps integer numerators over one shared positive denominator: a
dict mapping exponent pairs (dx, dy) to nonzero ints, plus den.  The pair is
held in lowest terms (gcd(den, *numerators) == 1, and den == 1 for the zero
polynomial), so equality and hashing are structural.  Ring operations,
scaling and derivatives do integer work and one gcd reduction per result.
Fraction appears only at the edges: coeff(), the read-only terms view and
the printer.  The canonical term order used for printing and serialization
is graded-lex on (dx, dy), highest first.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm

from .errors import NotDivisible, UsageError


def _ratio(c):
    """(numerator, denominator) of an int or Fraction scalar."""
    if isinstance(c, int):
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"cannot coerce {c!r} to a rational")


def grlex_key(exp):
    i, j = exp
    return (i + j, i, j)


class Poly2:
    __slots__ = ("_num", "_den")

    def __init__(self, terms=None):
        items = []
        den = 1
        if terms:
            for (i, j), c in terms.items() if isinstance(terms, dict) else terms:
                if type(i) is not int or type(j) is not int or i < 0 or j < 0:
                    raise UsageError(f"Poly2 exponents must be integers >= 0, got {(i, j)!r}")
                n, d = _ratio(c)
                if not n:
                    continue
                items.append(((i, j), n, d))
                den = lcm(den, d)
        num = {}
        for key, n, d in items:
            num[key] = num.get(key, 0) + n * (den // d)
        p = _make({k: v for k, v in num.items() if v}, den)
        self._num = p._num
        self._den = p._den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "Poly2":
        return cls({(i, j): c})

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> dict:
        """A fresh {(i, j): Fraction} dict; changing it leaves self alone."""
        den = self._den
        return {k: Fraction(v, den) for k, v in self._num.items()}

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self._num.get((i, j), 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def sorted_terms(self):
        """(exponent, Fraction) pairs in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    # -- ring operations ----------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other for sign in {1, -1}."""
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        elif not isinstance(other, Poly2):
            return NotImplemented
        b = other._num
        if not b:
            return self
        da, db = self._den, other._den
        if da == db:
            d = dict(self._num)
            mb = sign
        else:
            g = gcd(da, db)
            ma, mb = db // g, sign * (da // g)
            d = {k: v * ma for k, v in self._num.items()}
            da *= ma
        get = d.get
        for k, v in b.items():
            acc = get(k, 0) + v * mb
            if acc:
                d[k] = acc
            else:
                del d[k]
        return _make(d, da)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        out = _new(Poly2)
        out._num = {k: -v for k, v in self._num.items()}
        out._den = self._den
        return out

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly2):
            a, b = self._num, other._num
            if not a or not b:
                return Poly2()
            d = {}
            get = d.get
            for (i1, j1), c1 in a.items():
                for (i2, j2), c2 in b.items():
                    k = (i1 + i2, j1 + j2)
                    d[k] = get(k, 0) + c1 * c2
            if 0 in d.values():
                d = {k: v for k, v in d.items() if v}
            return _make(d, self._den * other._den)
        if isinstance(other, int):
            if not other:
                return Poly2()
            # gcd(den, numerators) == 1, so dividing out gcd(den, c) keeps lowest terms
            g = gcd(self._den, other)
            c = other // g
            out = _new(Poly2)
            out._num = {k: v * c for k, v in self._num.items()}
            out._den = self._den // g
            return out
        if isinstance(other, Fraction):
            if not other:
                return Poly2()
            c = other.numerator
            return _make({k: v * c for k, v in self._num.items()}, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not n:
            return Poly2.const(1)
        result, base = None, self
        while True:  # one product per set bit after the first and per squaring
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- calculus -----------------------------------------------------

    def dx(self, n: int = 1) -> "Poly2":
        if n == 0:
            return self
        return _make({(i - n, j): c * perm(i, n)
                      for (i, j), c in self._num.items() if i >= n}, self._den)

    def dy(self, n: int = 1) -> "Poly2":
        if n == 0:
            return self
        return _make({(i, j - n): c * perm(j, n)
                      for (i, j), c in self._num.items() if j >= n}, self._den)

    # -- division -----------------------------------------------------

    def exact_div(self, other: "Poly2") -> "Poly2":
        """Quotient q with other*q == self, or raise NotDivisible.

        Long division on the integer numerators, over one denominator that grows
        only when the divisor's leading numerator does not divide the
        remainder's.  A quotient needs the divisor's leading and trailing grlex
        exponents to divide the dividend's, which is tested first.
        """
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        b = other._num
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self._num)
        if not rem:
            return Poly2()
        lead = max(b, key=grlex_key)
        for ea, eb in ((max(rem, key=grlex_key), lead),
                       (min(rem, key=grlex_key), min(b, key=grlex_key))):
            if ea[0] < eb[0] or ea[1] < eb[1]:
                raise NotDivisible(f"no polynomial quotient (stuck at {ea})")
        lc = b[lead]
        quo = {}
        den = 1  # rem and quo are numerators over den
        while rem:
            r_exp = max(rem, key=grlex_key)
            di, dj = r_exp[0] - lead[0], r_exp[1] - lead[1]
            if di < 0 or dj < 0:
                raise NotDivisible(f"no polynomial quotient (stuck at {r_exp})")
            g = gcd(rem[r_exp], lc) if lc > 0 else -gcd(rem[r_exp], lc)
            s, qn = lc // g, rem[r_exp] // g  # the quotient term is qn / (den * s), s > 0
            if s != 1:
                rem = {k: v * s for k, v in rem.items()}
                quo = {k: v * s for k, v in quo.items()}
                den *= s
            quo[di, dj] = qn
            for (i, j), c in b.items():
                k = (i + di, j + dj)
                acc = rem.get(k, 0) - c * qn
                if acc:
                    rem[k] = acc
                else:
                    del rem[k]
        # self / other = (quo / den) * other._den / self._den
        return _make({k: v * other._den for k, v in quo.items()}, den * self._den)

    # -- formatting -----------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly2({format_poly(self)})"


_new = Poly2.__new__


def _make(num, den):
    """The Poly2 num/den in lowest terms; num has no zero value and den > 0."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
    out = _new(Poly2)
    out._num = num
    out._den = den
    return out


X = Poly2.monomial(1, 0)
Y = Poly2.monomial(0, 1)
ONE = Poly2.const(1)


def _digits(n: int) -> str:
    """str(n) for an int of any length."""
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits() digits; Decimal has no limit
        return str(Decimal(n))


def _ratio_str(n: int, d: int) -> str:
    return _digits(n) if d == 1 else f"{_digits(n)}/{_digits(d)}"


def format_rational(c: Fraction | int) -> str:
    """p/q reduced with q > 0, or just p, for a Fraction or an int of any length."""
    return _ratio_str(c.numerator, c.denominator)


def format_poly(p: Poly2) -> str:
    """Canonical text form; graded-lex descending, parseable by parse_poly."""
    return format_terms(p._num.items(), p._den)


@lru_cache(maxsize=None)
def _monomial(i: int, j: int) -> str:
    """x^i*y^j as format_terms prints it; "" for i = j = 0."""
    x = "" if not i else "x" if i == 1 else "x^" + _digits(i)
    y = "" if not j else "y" if j == 1 else "y^" + _digits(j)
    return f"{x}*{y}" if x and y else x or y


def format_terms(items, den: int) -> str:
    """The one polynomial printer: sum n/den x^i y^j over ((i, j), n) items with
    distinct exponents and n != 0, graded-lex descending, one gcd per term."""
    chunks = []
    for (i, j), n in sorted(items, key=lambda t: grlex_key(t[0]), reverse=True):
        g = gcd(n, den)
        a, d = abs(n) // g, den // g
        body = _monomial(i, j)
        if a != d or not body:  # a/d is in lowest terms, so a == d means |c| == 1
            body = f"{_ratio_str(a, d)}*{body}" if body else _ratio_str(a, d)
        sign = ("- " if n < 0 else "+ ") if chunks else ("-" if n < 0 else "")
        chunks.append(sign + body)
    return " ".join(chunks) or "0"
