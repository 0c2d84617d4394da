"""Sparse exact-rational bivariate polynomials in x, y.

Terms are kept in a dict mapping exponent pairs (dx, dy) to Fraction
coefficients; zero coefficients are never stored, so equality is structural.
The canonical term order used for printing and serialization is graded-lex
on (dx, dy), highest first.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm

from .errors import NonUnitLeadingTerm, NotDivisible


def _q(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"cannot coerce {c!r} to a rational")


def grlex_key(exp):
    i, j = exp
    return (i + j, i, j)


class Poly2:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, c in items:
                c = _q(c)
                if not c:
                    continue
                i, j = exp
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in {exp}")
                key = (int(i), int(j))
                acc = d.get(key, 0) + c
                if acc:
                    d[key] = acc
                elif key in d:
                    del d[key]
        self.terms = d

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): _q(c)})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "Poly2":
        return cls({(i, j): _q(c)})

    # -- basic queries ------------------------------------------------

    def coeff(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0)}

    def total_degree(self) -> int:
        """Max total degree of a term; 0 for the zero polynomial."""
        return max((i + j for i, j in self.terms), default=0)

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        d = dict(self.terms)
        for k, c in other.terms.items():
            acc = d.get(k, 0) + c
            if acc:
                d[k] = acc
            elif k in d:
                del d[k]
        out = Poly2.__new__(Poly2)
        out.terms = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly2.__new__(Poly2)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _q(other)
            if not c:
                return Poly2.zero()
            out = Poly2.__new__(Poly2)
            out.terms = {k: v * c for k, v in self.terms.items()}
            return out
        if not isinstance(other, Poly2):
            return NotImplemented
        d = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                acc = d.get(k, 0) + c1 * c2
                if acc:
                    d[k] = acc
                elif k in d:
                    del d[k]
        out = Poly2.__new__(Poly2)
        out.terms = d
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly2.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus -----------------------------------------------------

    def dx(self, n: int = 1) -> "Poly2":
        if n == 0:
            return self
        d = {}
        for (i, j), c in self.terms.items():
            if i >= n:
                d[(i - n, j)] = c * perm(i, n)
        out = Poly2.__new__(Poly2)
        out.terms = d
        return out

    def dy(self, n: int = 1) -> "Poly2":
        if n == 0:
            return self
        d = {}
        for (i, j), c in self.terms.items():
            if j >= n:
                d[(i, j - n)] = c * perm(j, n)
        out = Poly2.__new__(Poly2)
        out.terms = d
        return out

    # -- division -----------------------------------------------------

    def exact_div(self, other: "Poly2") -> "Poly2":
        """Quotient q with other*q == self, or raise NotDivisible."""
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly2.zero()
        lt_exp = max(other.terms, key=grlex_key)
        lt_c = other.terms[lt_exp]
        rem = dict(self.terms)
        quo = {}
        while rem:
            r_exp = max(rem, key=grlex_key)
            di = r_exp[0] - lt_exp[0]
            dj = r_exp[1] - lt_exp[1]
            if di < 0 or dj < 0:
                raise NotDivisible(f"no polynomial quotient (stuck at {r_exp})")
            qc = rem[r_exp] / lt_c
            quo[(di, dj)] = qc
            for (i, j), c in other.terms.items():
                k = (i + di, j + dj)
                acc = rem.get(k, 0) - c * qc
                if acc:
                    rem[k] = acc
                elif k in rem:
                    del rem[k]
        out = Poly2.__new__(Poly2)
        out.terms = quo
        return out

    def inverse(self) -> "Poly2":
        """Multiplicative inverse; only nonzero constants are units."""
        if self.is_constant() and not self.is_zero():
            return Poly2.const(1 / self.terms[(0, 0)])
        raise NonUnitLeadingTerm(f"{self} is not a unit in Q[x,y]")

    # -- formatting -----------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly2({format_poly(self)})"


X = Poly2.monomial(1, 0)
Y = Poly2.monomial(0, 1)
ONE = Poly2.const(1)


def format_rational(c: Fraction) -> str:
    return str(c)  # Fraction prints p/q reduced with q > 0, or just p


def format_poly(p: Poly2) -> str:
    """Canonical text form; graded-lex descending, parseable by parse_poly."""
    if p.is_zero():
        return "0"
    chunks = []
    for (i, j), c in p.sorted_terms():
        factors = []
        if abs(c) != 1 or (i == 0 and j == 0):
            factors.append(format_rational(abs(c)))
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        body = "*".join(factors)
        if not chunks:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append(("- " if c < 0 else "+ ") + body)
    return " ".join(chunks)
