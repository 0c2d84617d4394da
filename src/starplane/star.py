"""Star products as first-class values.

A StarProduct is a truncated h-series of bidifferential operators m_k on top
of the implicit pointwise product m_0.  This module provides multiplication,
the exact associativity defect, the gauge action of operators 1 + hD_1 + ...,
normalization into the pure dx^a (x) dy^b class, the skew-evaluation map p3,
and the symmetric Moyal fixture.

The gauge action and normalization share one triangular recursion on
U o m' = m o (U (x) U), _gauge, which never forms U^{-1}; normalization
reads U_k and m'_k off the recursion's kernel sum R_k in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from types import MappingProxyType

from .diffop import (
    BiDiffOp,
    DiffOp,
    ReadOnly,
    Record,
    is_k2_shape,
    _admissible,
    _width,
    substitute_sum,
)
from .errors import CapExceeded, Inconsistent, UsageError
from .poly import Poly2, _make
from .series import HSeries


def _check_order(N) -> None:
    if type(N) is not int or N < 1:
        raise UsageError(f"order must be an integer >= 1, got {N!r}")


def _check_product(m) -> None:
    if not isinstance(m, StarProduct):
        raise UsageError(f"m must be a StarProduct, got {m!r}")


def _check_poly(p, name: str) -> None:
    if not isinstance(p, Poly2):
        raise UsageError(f"{name} must be a Poly2, got {p!r}")


def _trim(coeffs) -> tuple:
    """The coefficients as a tuple without trailing zeros."""
    coeffs = tuple(coeffs)
    n = len(coeffs)
    while n and coeffs[n - 1].is_zero():
        n -= 1
    return coeffs[:n]


class _OrderSeries(ReadOnly):
    """_unit + sum h^k orders[k] for k = 1..n_order; each subclass sets _unit and
    _zero, the operators order_op gives at k = 0 and at an absent order.

    n_order must be an int >= 1, every key of orders an int in 1..n_order
    and every value an instance of _zero's type (UsageError, a ValueError,
    otherwise).  Read-only, like the operators in orders, because
    quantize()'s ktables share each K_k with the recursion's step cache.
    Equality is type-strict.
    """

    __slots__ = ("n_order", "orders")

    def __init__(self, n_order, orders=None):
        _check_order(n_order)
        for k, op in (orders or {}).items():
            if type(k) is not int or not 1 <= k <= n_order:
                raise UsageError(f"order keys must be integers in 1..{n_order}, got {k!r}")
            if not isinstance(op, type(self._zero)):
                raise UsageError(f"order {k} must be a {type(self._zero).__name__}, "
                                 f"got {type(op).__name__}")
        object.__setattr__(self, "n_order", n_order)
        object.__setattr__(self, "orders",
                           MappingProxyType({k: op for k, op in (orders or {}).items() if op}))

    def order_op(self, k: int):
        return self._unit if k == 0 else self.orders.get(k, self._zero)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n_order == other.n_order and self.orders == other.orders

    def __repr__(self):
        return f"{type(self).__name__}(N={self.n_order}, orders={sorted(self.orders)})"


class StarProduct(_OrderSeries):
    """m_0 + sum h^k m_k with m_0 the pointwise product.  quantize() attaches phi
    and ktables, the read-only mapping k -> K_k of its pure-shape BiDiffOps with
    m_k = phi K_k, as metadata outside equality."""

    __slots__ = ("phi", "ktables")
    _unit, _zero = BiDiffOp.multiplication(), BiDiffOp()

    def __init__(self, n_order, orders, phi=None, ktables=None):
        super().__init__(n_order, orders)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "ktables",
                           None if ktables is None else MappingProxyType(dict(ktables)))


class PoissonSeries(Record):
    """Formal Poisson structure sum h^i psi_i dx ^ dy (any bivector works);
    coeffs holds a Poly2 for i = 0..n_order."""

    __slots__ = ("n_order", "coeffs")

    def __init__(self, n_order: int, coeffs: list):
        if len(coeffs) != n_order + 1:
            raise ValueError("coefficient count must match the truncation order")
        self.n_order = n_order
        self.coeffs = coeffs

    def trimmed(self):
        return list(_trim(self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, PoissonSeries):
            return NotImplemented
        return self.trimmed() == other.trimmed()


class GaugeOp(_OrderSeries):
    """U = 1 + sum h^k U_k with U_k ordinary differential operators."""

    __slots__ = ()
    _unit, _zero = DiffOp.identity(), DiffOp()


# -- multiplication ----------------------------------------------------------


def star_mul(m: StarProduct, f: Poly2, g: Poly2) -> HSeries:
    """f * g + sum h^k m_k(f, g), truncated at the product's order."""
    _check_product(m)
    _check_poly(f, "f")
    _check_poly(g, "g")
    coeffs = [f * g]
    for k in range(1, m.n_order + 1):
        coeffs.append(m.order_op(k).apply(f, g))
    return HSeries(m.n_order, coeffs)


# -- associativity -----------------------------------------------------------


def assoc_defect(m: StarProduct) -> dict:
    """Exact order-k associator operators for k = 1..N (zero ops included).

    Order 1 is -b(m_1), so a product whose m_1 is not a Hochschild cocycle
    is not associative at order 1.
    """
    _check_product(m)
    out = {}
    for k in range(1, m.n_order + 1):
        out[k] = substitute_sum([(sign, m.order_op(i), slot, m.order_op(k - i))
                                 for i in range(k + 1) for sign, slot in ((1, 0), (-1, 1))])
    return out


def is_associative(m: StarProduct) -> bool:
    return all(t.is_zero() for t in assoc_defect(m).values())


def spq_membership(m: StarProduct) -> bool:
    """True iff every order differentiates slot 1 only in x and slot 2 only in y."""
    _check_product(m)
    return all(is_k2_shape(op) for op in m.orders.values())


# -- gauge action ------------------------------------------------------------


def _read_off(r: BiDiffOp, k: int, max_op_order):
    """(U_k, m'_k) read off R_k's integer numerators in closed form.

    dU(f, g) = U(fg) - U(f)g - fU(g), so dU_k puts C(nu, rho) u_nu on each
    slot (rho, sigma) with rho + sigma = nu, rho and sigma nonzero, and -u_0
    on the slot ((0, 0), (0, 0)), where neither argument is derived.  So a
    slot (A, B) of R_k off the admissible shape forces u_(A+B) =
    coeff / C(A+B, A), the slot ((0, 0), (0, 0)) forces u_0 = -coeff (C is
    -1 there), and a slot with exactly one underived argument, which no U_k
    reaches, means the product is not associative through order k.
    m'_k = R_k - dU_k is pure-shape iff R_k has a slot at every
    non-admissible split of every forced nu, and is then R_k's admissible
    part minus u_nu on ((nu_0, 0), (0, nu_1)).  Both are summed int-keyed,
    as in the kernel (_of_packed).
    """
    den, terms = r._lifted
    forced = {}  # nu -> (C(nu, A), R_k's numerators at the first slot (A, B) forcing it)
    for (A, B), flat in terms:
        if _admissible(A, B):
            continue
        if A == B == (0, 0):
            c = -1
        elif A == (0, 0) or B == (0, 0):
            raise Inconsistent(f"order {k}: the product is not associative through order {k}")
        else:
            c = comb(A[0] + B[0], A[0]) * comb(A[1] + B[1], A[1])
        nu = (A[0] + B[0], A[1] + B[1])
        c0, flat0 = forced.setdefault(nu, (c, flat))
        if flat0 is not flat and ({(i, j): v * c0 for i, j, v in flat}
                                  != {(i, j): v * c for i, j, v in flat0}):
            raise Inconsistent(f"order {k}: conflicting forced values at {nu}")
    if not forced:
        return DiffOp(), r
    if max_op_order is not None and any(sum(nu) > max_op_order for nu in forced):
        raise CapExceeded(f"order {k}: U needs derivative order beyond {max_op_order}")
    slots = {key for key, _ in terms}
    for n0, n1 in forced:
        for A in ((a0, a1) for a0 in range(n0 + 1) for a1 in range(n1 + 1)):
            B = (n0 - A[0], n1 - A[1])
            if A != (0, 0) and B != (0, 0) and not _admissible(A, B) and (A, B) not in slots:
                raise Inconsistent(f"order {k}: residual non-admissible term at {(A, B)}")
    L = lcm(*(abs(c) for c, _ in forced.values()))
    s = _width([(den, terms)])
    u = {(nu,): {i << s | j: v * (L // c) for i, j, v in flat}
         for nu, (c, flat) in forced.items()}
    m = {key: {i << s | j: v * L for i, j, v in flat} for key, flat in terms if _admissible(*key)}
    for ((n0, n1),), num in u.items():
        if n0 and n1:
            a = m.setdefault(((n0, 0), (0, n1)), {})
            a.update({mono: a.get(mono, 0) - v for mono, v in num.items()})
    return DiffOp._of_packed(den * L, u, s, True), BiDiffOp._of_packed(den * L, m, s, True)


def _gauge(m: StarProduct, U: GaugeOp | None, max_op_order=None):
    """Solve U o m' = m o (U (x) U) for m' order by order, and U too if not given.

    Write R_k for the order-k part of that identity without its three U_k
    terms, namely sum_{q+i+j=k; i,j<k} m_q(U_i., U_j.) minus
    sum_{p=1..k-1} U_p o m'_(k-p): one kernel sum of m_q(U_(k-q) ., .) for
    q >= 1 (j = 0), L_n(., U_(k-n) .) for n = 1..k-1, the row sum
    L_n = sum_{q+i=n} m_q(U_i ., .) being one kernel call made once, and
    -U_p o m'_(k-p).  Then m'_k = R_k - dU_k with
    dU(f,g) = U(fg) - U(f)g - fU(g).  Given U, this is the gauge action,
    with -dU_k's three items in R_k's kernel sum; with U = None, U_k and m'_k
    are read off R_k in closed form (_read_off), which makes m' pure-shape.
    U^{-1} is never formed.
    """
    N = m.n_order
    mult = StarProduct._unit  # the shared units keep their lifted forms across calls
    ms = [mult] + [m.order_op(q) for q in range(1, N + 1)]
    us = [GaugeOp._unit]
    new = [mult]
    rows = [None]  # rows[n] = L_n, None if zero; only the kernel reads them, so no Poly2
    for k in range(1, N + 1):
        # the j = 0 terms; the kernel adds m_k (U_0 = 1) as it is
        head = [(1, ms[q], 0, us[k - q]) for q in range(1, k + 1) if ms[q] and us[k - q]]
        items = head + [(1, rows[n], 1, us[k - n]) for n in range(1, k) if rows[n] and us[k - n]]
        items += [(-1, us[p], 0, new[k - p]) for p in range(1, k) if us[p] and new[k - p]]
        if U is None:
            uk, mk = _read_off(substitute_sum(items) if items else BiDiffOp(), k, max_op_order)
        else:
            uk = U.order_op(k)
            items += [(-1, uk, 0, mult), (1, mult, 0, uk), (1, mult, 1, uk)] if uk else []
            mk = substitute_sum(items) if items else BiDiffOp()
        us.append(uk)
        new.append(mk)
        if k < N:
            head += [(1, mult, 0, uk)] if uk else []  # L_k = head + m_0(U_k ., .)
            rows.append(substitute_sum(head) if head else None)
    out = StarProduct(N, dict(enumerate(new[1:], 1)))
    return out if U is not None else (GaugeOp(N, dict(enumerate(us[1:], 1))), out)


def gauge_transform(m: StarProduct, U: GaugeOp) -> StarProduct:
    """The m' with U(m'(f,g)) = m(Uf, Ug), i.e. U^{-1} m(U., U.), through h^N."""
    _check_product(m)
    if not isinstance(U, GaugeOp):
        raise UsageError(f"U must be a GaugeOp, got {U!r}")
    if U.n_order < m.n_order:
        raise UsageError(f"U has order {U.n_order}, below the product's order {m.n_order}")
    return _gauge(m, U)


# -- normalization (unique gauge into the pure-shape class) ------------------


def normalize(m: StarProduct, max_op_order: int | None = None):
    """Unique U with every U_k in span{1, d^nu : |nu| >= 2} and U^{-1} m(U.,U.) of pure shape.

    One pass of the gauge recursion (_gauge) with U_k and m'_k read off R_k
    (_read_off).  U_k's order-0 part is -R_k(1, 1); it is zero when every
    m_k(1, 1) is, and then U1 = 1, Ux = x and Uy = y.  Raised in this order:
    Inconsistent for a slot with exactly one underived argument (the product
    is not associative through that order) or conflicting forced values,
    CapExceeded for a U_k above max_op_order (UsageError unless an int >= 0),
    Inconsistent for a non-admissible slot left in m'_k.
    """
    _check_product(m)
    if max_op_order is not None and (type(max_op_order) is not int or max_op_order < 0):
        raise UsageError(f"max_op_order must be an integer >= 0 or None, got {max_op_order!r}")
    return _gauge(m, None, max_op_order)


# -- Poisson extraction ------------------------------------------------------


_D0, _DX, _DY = (0, 0), (1, 0), (0, 1)
# (slot, sign, monomial shift) of m(x, y) - m(y, x): the identity, dx and dy
# are the only derivatives that leave x or y nonzero
_SKEW_SLOTS = (((_DX, _DY), 1, _D0), ((_DY, _DX), -1, _D0),
               ((_D0, _DY), 1, _DX), ((_DY, _D0), -1, _DX),
               ((_DX, _D0), 1, _DY), ((_D0, _DX), -1, _DY))


def extract_poisson_p3(m: StarProduct) -> PoissonSeries:
    """Coefficient of h^(k-1) is m_k(x, y) - m_k(y, x).

    In closed form that is c[dx, dy] - c[dy, dx] + (c[1, dy] - c[dy, 1]) x
    + (c[dx, 1] - c[1, dx]) y, c being m_k's coefficient on a slot: the
    xy terms of c[1, 1] cancel, and on every other slot a derivative of x or
    y vanishes.  So at most six slots of m_k's integer form are read, for any
    product, and one Poly2 is built per order.
    """
    _check_product(m)
    coeffs = []
    for k in range(1, m.n_order + 1):
        den, terms = m.order_op(k)._lifted
        slots = dict(terms)
        out = {}
        for slot, sign, (si, sj) in _SKEW_SLOTS:
            for i, j, v in slots.get(slot, ()):
                out[i + si, j + sj] = out.get((i + si, j + sj), 0) + sign * v
        coeffs.append(_make({e: v for e, v in out.items() if v}, den))
    return PoissonSeries(m.n_order - 1, coeffs)


# -- fixtures ----------------------------------------------------------------


def moyal_fixture(c, N: int) -> StarProduct:
    """Symmetric Moyal product for the constant bivector c dx ^ dy, c an int or Fraction."""
    _check_order(N)
    if type(c) is not int and not isinstance(c, Fraction):
        raise UsageError(f"c must be an int or a Fraction, got {c!r}")
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

