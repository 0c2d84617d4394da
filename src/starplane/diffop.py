"""Polydifferential operators with Poly2 coefficients.

DiffOp / BiDiffOp / TriDiffOp act on 1 / 2 / 3 polynomial arguments as
sum_terms c * d^alpha f [* d^beta g [* d^gamma h]].  KTable is the restricted
bidifferential shape used throughout the engine: pure-x derivatives on the
first slot, pure-y on the second, both of positive order.

This module also provides the Hochschild differential b, the recursion
right-hand side T_k, Euler-Lagrange constraint maps, and the pure-shape
membership test.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from types import MappingProxyType

from .errors import MissingPriorOrder
from .poly import Poly2

Idx = tuple  # (i, j) derivative multi-index


def _splits2(n: Idx):
    """All (p, q) with p+q == n componentwise, with binomial multiplicities."""
    nx, ny = n
    out = []
    for px in range(nx + 1):
        for py in range(ny + 1):
            m = comb(nx, px) * comb(ny, py)
            out.append(((px, py), (nx - px, ny - py), m))
    return out


def _splits3(n: Idx):
    """All (p, q, r) with p+q+r == n componentwise, with multinomials."""
    nx, ny = n
    out = []
    fx, fy = factorial(nx), factorial(ny)
    for px in range(nx + 1):
        for qx in range(nx - px + 1):
            rx = nx - px - qx
            mx = fx // (factorial(px) * factorial(qx) * factorial(rx))
            for py in range(ny + 1):
                for qy in range(ny - py + 1):
                    ry = ny - py - qy
                    my = fy // (factorial(py) * factorial(qy) * factorial(ry))
                    out.append(((px, py), (qx, qy), (rx, ry), mx * my))
    return out


def _accum(d, key, poly):
    if not poly:
        return
    acc = d.get(key)
    if acc is None:
        d[key] = poly
    else:
        s = acc + poly
        if s:
            d[key] = s
        else:
            del d[key]


class ReadOnly:
    """Attributes are set once, in __init__ through object.__setattr__, and never
    rebound or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only; cannot delete {name!r}")


class _OpBase(ReadOnly):
    """Operators are values: terms is a read-only mapping that cannot be rebound."""

    __slots__ = ("terms",)
    arity = None

    def __init__(self, terms=None):
        d = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for k, p in items:
                if isinstance(p, (int, Fraction)):
                    p = Poly2.const(p)
                _accum(d, k, p)
        object.__setattr__(self, "terms", MappingProxyType(d))

    @classmethod
    def _of(cls, d):
        """The operator whose terms are the dict d, taken over without a copy."""
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", MappingProxyType(d))
        return out

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        d = dict(self.terms)
        for k, p in other.terms.items():
            _accum(d, k, p)
        return type(self)._of(d)

    def __neg__(self):
        return type(self)._of({k: -p for k, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly):
        """Multiply every coefficient by a polynomial (or scalar)."""
        d = {}
        for k, p in self.terms.items():
            _accum(d, k, p * poly)
        return type(self)._of(d)

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        bits = ", ".join(f"{k}: {p}" for k, p in sorted(self.terms.items()))
        return f"{type(self).__name__}({bits})"


class DiffOp(_OpBase):
    """Unary differential operator sum u_(i,j) * dx^i dy^j."""

    arity = 1

    @classmethod
    def identity(cls):
        return cls({(0, 0): Poly2.const(1)})

    def apply(self, f: Poly2) -> Poly2:
        out = Poly2.zero()
        for (i, j), c in self.terms.items():
            out = out + c * f.dx(i).dy(j)
        return out

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self after other: (self.compose(other))(f) == self(other(f))."""
        d = {}
        for (ax, ay), a in self.terms.items():
            for (bx, by), b in other.terms.items():
                for rho, tail, m in _splits2((ax, ay)):
                    db = b.dx(rho[0]).dy(rho[1])
                    if not db:
                        continue
                    key = (tail[0] + bx, tail[1] + by)
                    _accum(d, key, a * db * m)
        return DiffOp._of(d)


class BiDiffOp(_OpBase):
    """Bidifferential operator: terms keyed by (alpha, beta)."""

    arity = 2

    @classmethod
    def multiplication(cls):
        return cls({((0, 0), (0, 0)): Poly2.const(1)})

    def apply(self, f: Poly2, g: Poly2) -> Poly2:
        out = Poly2.zero()
        for ((ax, ay), (bx, by)), c in self.terms.items():
            df = f.dx(ax).dy(ay)
            if not df:
                continue
            dg = g.dx(bx).dy(by)
            if not dg:
                continue
            out = out + c * df * dg
        return out


class TriDiffOp(_OpBase):
    """Tridifferential operator: terms keyed by (alpha, beta, gamma)."""

    arity = 3

    def apply(self, f: Poly2, g: Poly2, h: Poly2) -> Poly2:
        out = Poly2.zero()
        for (a, b, g3), c in self.terms.items():
            df = f.dx(a[0]).dy(a[1])
            if not df:
                continue
            dg = g.dx(b[0]).dy(b[1])
            if not dg:
                continue
            dh = h.dx(g3[0]).dy(g3[1])
            if not dh:
                continue
            out = out + c * df * dg * dh
        return out


class KTable(_OpBase):
    """Coefficients kappa_(a,b) for dx^a (x) dy^b, a, b >= 1."""

    def __init__(self, terms=None):
        items = list(terms.items() if isinstance(terms, dict) else terms or ())
        for (a, b), _ in items:
            if a < 1 or b < 1:
                raise ValueError(f"KTable indices must be >= 1, got {(a, b)}")
        super().__init__(items)

    def to_bidiff(self) -> BiDiffOp:
        return BiDiffOp({((a, 0), (0, b)): p for (a, b), p in self.terms.items()})

    def apply(self, f: Poly2, g: Poly2) -> Poly2:
        return self.to_bidiff().apply(f, g)


# -- Hochschild differential ------------------------------------------------


def hochschild_b(D) -> TriDiffOp:
    """(bD)(f,g,h) = f D(g,h) - D(fg,h) + D(f,gh) - D(f,g) h, as an operator."""
    if isinstance(D, KTable):
        D = D.to_bidiff()
    d = {}
    for (A, B), c in D.terms.items():
        _accum(d, ((0, 0), A, B), c)
        for p, q, m in _splits2(A):
            _accum(d, (p, q, B), c * (-m))
        for p, q, m in _splits2(B):
            _accum(d, (A, p, q), c * m)
        _accum(d, (A, B, (0, 0)), -c)
    return TriDiffOp._of(d)


# -- compositions and the recursion right-hand side -------------------------


def compose_in_first(outer: BiDiffOp, inner: BiDiffOp) -> TriDiffOp:
    """The tridifferential operator (f,g,h) -> outer(inner(f,g), h)."""
    d = {}
    for (A, B), c in outer.terms.items():
        for (al, be), e in inner.terms.items():
            for p, q, r, m in _splits3(A):
                de = e.dx(p[0]).dy(p[1])
                if not de:
                    continue
                key = ((al[0] + q[0], al[1] + q[1]), (be[0] + r[0], be[1] + r[1]), B)
                _accum(d, key, c * de * m)
    return TriDiffOp._of(d)


def compose_in_second(outer: BiDiffOp, inner: BiDiffOp) -> TriDiffOp:
    """The tridifferential operator (f,g,h) -> outer(f, inner(g,h))."""
    d = {}
    for (A, B), c in outer.terms.items():
        for (al, be), e in inner.terms.items():
            for p, q, r, m in _splits3(B):
                de = e.dx(p[0]).dy(p[1])
                if not de:
                    continue
                key = (A, (al[0] + q[0], al[1] + q[1]), (be[0] + r[0], be[1] + r[1]))
                _accum(d, key, c * de * m)
    return TriDiffOp._of(d)


def build_rhs_T(k: int, phi: Poly2, K_list) -> TriDiffOp:
    """Order-k associativity defect with one overall phi factor removed.

    T_k(f,g,h) = sum_{i+j=k, i,j>=1} [ K_i(phi K_j(f,g), h) - K_i(f, phi K_j(g,h)) ],
    so that phi*T_k equals the order-k associator of fg + sum h^i phi K_i.
    """
    if k < 2:
        raise ValueError("recursion starts at k = 2")
    if len(K_list) < k - 1:
        raise MissingPriorOrder(f"need tables for orders 1..{k - 1}, got {len(K_list)}")
    total = TriDiffOp()
    for i in range(1, k):
        j = k - i
        outer = K_list[i - 1].to_bidiff()
        inner = K_list[j - 1].to_bidiff().scale(phi)
        total = total + compose_in_first(outer, inner) - compose_in_second(outer, inner)
    return total


# -- Euler-Lagrange constraints and shape tests ------------------------------


def euler_lagrange(K: KTable, axis: str) -> dict:
    """EL functional per opposite index; {} means identically zero.

    axis "x": for each b, sum_a (-1)^(a-1) dx^(a-1) kappa_ab.
    K is in the admissible divergence-form class iff both axes vanish.
    """
    out = {}
    for (a, b), kappa in K.terms.items():
        if axis == "x":
            key, val = b, kappa.dx(a - 1) * ((-1) ** (a - 1))
        elif axis == "y":
            key, val = a, kappa.dy(b - 1) * ((-1) ** (b - 1))
        else:
            raise ValueError("axis must be 'x' or 'y'")
        _accum(out, key, val)
    return out


def _admissible(A: Idx, B: Idx) -> bool:
    """The slot dx^a (x) dy^b with a, b >= 1."""
    return A[1] == 0 and B[0] == 0 and A[0] >= 1 and B[1] >= 1


def is_k2_shape(D) -> bool:
    """First slot pure-x of positive order, second slot pure-y of positive order."""
    if isinstance(D, KTable):
        return True
    return all(_admissible(A, B) for A, B in D.terms)
