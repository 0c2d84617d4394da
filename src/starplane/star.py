"""Star products as first-class values.

A StarProduct is a truncated h-series of bidifferential operators m_k on top
of the implicit pointwise product m_0.  This module provides multiplication,
the exact associativity defect, the gauge action of operators 1 + hD_1 + ...,
normalization into the pure dx^a (x) dy^b class, the skew-evaluation map p3,
and the symmetric Moyal fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from types import MappingProxyType

from .diffop import (
    BiDiffOp,
    DiffOp,
    TriDiffOp,
    compose_in_first,
    compose_in_second,
    is_k2_shape,
    _accum,
    _splits2,
    _splits3,
)
from .errors import CapExceeded, Inconsistent
from .poly import Poly2
from .series import HSeries


class StarProduct:
    """Truncation order n_order; orders maps k >= 1 to the operator m_k.

    quantize() attaches phi and the per-order KTables; these are metadata
    and do not take part in equality.  orders and ktables are read-only
    mappings, because quantize() hands one cached product to every caller.
    """

    __slots__ = ("n_order", "orders", "phi", "ktables")

    def __init__(self, n_order, orders, phi=None, ktables=None):
        self.n_order = n_order
        self.orders = MappingProxyType({k: op for k, op in orders.items() if op})
        self.phi = phi
        self.ktables = MappingProxyType(dict(ktables)) if ktables is not None else None

    def order_op(self, k: int) -> BiDiffOp:
        if k == 0:
            return BiDiffOp.multiplication()
        return self.orders.get(k, BiDiffOp())

    def __eq__(self, other):
        if not isinstance(other, StarProduct):
            return NotImplemented
        return self.n_order == other.n_order and self.orders == other.orders

    def __repr__(self):
        return f"StarProduct(N={self.n_order}, orders={sorted(self.orders)})"


@dataclass
class PoissonSeries:
    """Formal Poisson structure sum h^i psi_i dx ^ dy (any bivector works)."""

    n_order: int
    coeffs: list  # Poly2 for i = 0..n_order

    def __post_init__(self):
        if len(self.coeffs) != self.n_order + 1:
            raise ValueError("coefficient count must match the truncation order")

    def trimmed(self):
        c = list(self.coeffs)
        while c and c[-1].is_zero():
            c.pop()
        return c

    def __eq__(self, other):
        if not isinstance(other, PoissonSeries):
            return NotImplemented
        return self.trimmed() == other.trimmed()


class GaugeOp:
    """U = 1 + sum h^k U_k with U_k ordinary differential operators."""

    __slots__ = ("n_order", "orders")

    def __init__(self, n_order, orders=None):
        self.n_order = n_order
        self.orders = {k: op for k, op in (orders or {}).items() if op}

    @classmethod
    def identity(cls, n_order):
        return cls(n_order, {})

    def order_op(self, k: int) -> DiffOp:
        if k == 0:
            return DiffOp.identity()
        return self.orders.get(k, DiffOp())

    def apply_series(self, p: Poly2) -> HSeries:
        coeffs = [p] + [self.order_op(k).apply(p) for k in range(1, self.n_order + 1)]
        return HSeries(self.n_order, coeffs)

    def inverse(self) -> "GaugeOp":
        inv = {}
        for k in range(1, self.n_order + 1):
            acc = DiffOp()
            for q in range(1, k + 1):
                uq = self.orders.get(q)
                if uq is None:
                    continue
                vk = inv.get(k - q) if k - q else DiffOp.identity()
                if vk is None:
                    continue
                acc = acc + vk.compose(uq)
            if acc:
                inv[k] = -acc
        return GaugeOp(self.n_order, inv)

    def __eq__(self, other):
        if not isinstance(other, GaugeOp):
            return NotImplemented
        return self.n_order == other.n_order and self.orders == other.orders

    def __repr__(self):
        return f"GaugeOp(N={self.n_order}, orders={sorted(self.orders)})"


# -- multiplication ----------------------------------------------------------


def star_mul(m: StarProduct, f: Poly2, g: Poly2) -> HSeries:
    """f * g + sum h^k m_k(f, g), truncated at the product's order."""
    coeffs = [f * g]
    for k in range(1, m.n_order + 1):
        coeffs.append(m.order_op(k).apply(f, g))
    return HSeries(m.n_order, coeffs)


def star_mul_series(m: StarProduct, F: HSeries, G: HSeries) -> HSeries:
    n = min(m.n_order, F.order, G.order)
    out = [Poly2.zero() for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(n + 1 - p):
            for k in range(n + 1 - p - q):
                out[p + q + k] = out[p + q + k] + m.order_op(k).apply(F[p], G[q])
    return HSeries(n, out)


# -- associativity -----------------------------------------------------------


def assoc_defect(m: StarProduct) -> dict:
    """Exact order-k associator operators for k = 2..N (zero ops included)."""
    out = {}
    for k in range(2, m.n_order + 1):
        total = TriDiffOp()
        for i in range(k + 1):
            outer = m.order_op(i)
            inner = m.order_op(k - i)
            if not outer or not inner:
                continue
            total = total + compose_in_first(outer, inner) - compose_in_second(outer, inner)
        out[k] = total
    return out


def is_associative(m: StarProduct) -> bool:
    return all(t.is_zero() for t in assoc_defect(m).values())


def spq_membership(m: StarProduct) -> bool:
    """True iff every order differentiates slot 1 only in x and slot 2 only in y."""
    return all(is_k2_shape(op) for op in m.orders.values())


# -- gauge action ------------------------------------------------------------


def _precompose(M: BiDiffOp, U: DiffOp, slot: int) -> BiDiffOp:
    """Replace argument `slot` of M by U(argument), as an exact operator."""
    d = {}
    for (A, B), c in M.terms.items():
        tgt = A if slot == 0 else B
        for (ux, uy), u in U.terms.items():
            for rho, tail, mult in _splits2(tgt):
                du = u.dx(rho[0]).dy(rho[1])
                if not du:
                    continue
                new = (tail[0] + ux, tail[1] + uy)
                key = (new, B) if slot == 0 else (A, new)
                _accum(d, key, c * du * mult)
    out = BiDiffOp.__new__(BiDiffOp)
    out.terms = d
    return out


def _postcompose(V: DiffOp, M: BiDiffOp) -> BiDiffOp:
    """The operator (f,g) -> V(M(f,g))."""
    d = {}
    for (mu_x, mu_y), v in V.terms.items():
        for (A, B), c in M.terms.items():
            for p, q, r, mult in _splits3((mu_x, mu_y)):
                dc = c.dx(p[0]).dy(p[1])
                if not dc:
                    continue
                key = ((A[0] + q[0], A[1] + q[1]), (B[0] + r[0], B[1] + r[1]))
                _accum(d, key, v * dc * mult)
    out = BiDiffOp.__new__(BiDiffOp)
    out.terms = d
    return out


def gauge_transform(m: StarProduct, U: GaugeOp) -> StarProduct:
    """m'(f,g) = U^{-1}(m(Uf, Ug)), truncated at h^N, by exact composition."""
    if U.n_order < m.n_order:
        raise ValueError("gauge operator truncated below the product order")
    N = m.n_order
    V = U.inverse()
    new_orders = {}
    for k in range(1, N + 1):
        acc = BiDiffOp()
        for q in range(k + 1):
            mq = m.order_op(q)
            if not mq:
                continue
            for i in range(k - q + 1):
                step1 = _precompose(mq, U.order_op(i), 0) if i else mq
                if not step1:
                    continue
                for j in range(k - q - i + 1):
                    p = k - q - i - j
                    step2 = _precompose(step1, U.order_op(j), 1) if j else step1
                    if not step2:
                        continue
                    step3 = _postcompose(V.order_op(p), step2) if p else step2
                    acc = acc + step3
        new_orders[k] = acc
    return StarProduct(N, new_orders)


# -- normalization (unique gauge into the pure-shape class) ------------------


def normalize(m: StarProduct, max_op_order: int | None = None):
    """Unique U with U1=1, Ux=x, Uy=y and U^{-1} m(U.,U.) of pure shape.

    Order by order, the non-conforming coefficients of the partially
    transformed product determine U_k exactly: a slot (rho, sigma) outside the
    admissible shape forces u_(rho+sigma) = coeff / C(rho+sigma, rho), and the
    polar conditions pin the remaining order-<=1 coefficients to zero.
    Conflicting forced values raise Inconsistent; max_op_order, when given,
    bounds the derivative order of each U_k (CapExceeded otherwise).
    """
    N = m.n_order
    U = GaugeOp(N, {})
    for k in range(1, N + 1):
        current = gauge_transform(m, U)
        known = current.order_op(k)
        forced = {}
        for ((ax, ay), (bx, by)), c in known.terms.items():
            if ay == 0 and bx == 0 and ax >= 1 and by >= 1:
                continue  # admissible slot, no constraint
            if (ax, ay) == (0, 0) or (bx, by) == (0, 0):
                raise Inconsistent(
                    f"order {k}: slot with an underived argument cannot be gauged away"
                )
            nu = (ax + bx, ay + by)
            mult = comb(nu[0], ax) * comb(nu[1], ay)
            val = c * Fraction(1, mult)
            if nu in forced:
                if forced[nu] != val:
                    raise Inconsistent(f"order {k}: conflicting forced values at {nu}")
            else:
                forced[nu] = val
        # polar conditions: no constant, dx, or dy part
        for nu in ((0, 0), (1, 0), (0, 1)):
            forced.pop(nu, None)
        if max_op_order is not None:
            over = [nu for nu in forced if nu[0] + nu[1] > max_op_order]
            if over:
                raise CapExceeded(f"order {k}: U needs derivative order beyond {max_op_order}")
        if forced:
            U = GaugeOp(N, {**U.orders, k: DiffOp(forced)})
        # verify every non-admissible slot now cancels at this order
        check = gauge_transform(m, U).order_op(k)
        for ((ax, ay), (bx, by)), c in check.terms.items():
            if not (ay == 0 and bx == 0 and ax >= 1 and by >= 1):
                raise Inconsistent(f"order {k}: residual non-admissible term at {((ax, ay), (bx, by))}")
    out = gauge_transform(m, U)
    if not spq_membership(out):
        raise Inconsistent("normalized product failed the shape check")
    return U, out


# -- Poisson extraction ------------------------------------------------------


_X = Poly2.monomial(1, 0)
_Y = Poly2.monomial(0, 1)


def extract_poisson_p3(m: StarProduct) -> PoissonSeries:
    """Coefficient of h^(k-1) is m_k(x, y) - m_k(y, x)."""
    coeffs = []
    for k in range(1, m.n_order + 1):
        op = m.order_op(k)
        coeffs.append(op.apply(_X, _Y) - op.apply(_Y, _X))
    return PoissonSeries(m.n_order - 1, coeffs)


# -- fixtures ----------------------------------------------------------------


def moyal_fixture(c, N: int) -> StarProduct:
    """Symmetric Moyal product for the constant bivector c dx ^ dy."""
    c = Fraction(c)
    orders = {}
    for k in range(1, N + 1):
        scale = c ** k * Fraction(1, factorial(k) * 2 ** k)
        terms = {}
        for j in range(k + 1):
            coef = scale * ((-1) ** j) * comb(k, j)
            terms[((k - j, j), (j, k - j))] = Poly2.const(coef)
        orders[k] = BiDiffOp(terms)
    return StarProduct(N, orders)


def pointwise_product(N: int) -> StarProduct:
    return StarProduct(N, {})
