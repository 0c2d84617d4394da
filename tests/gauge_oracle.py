"""Test-only reference: the inverse-based gauge action and normalization.

This is the route the engine used before the single triangular recursion.
oracle_gauge_transform forms V = U^{-1} order by order and evaluates
V(m(U., U.)) as a sum of exact compositions; oracle_normalize re-runs that
whole transform at every order, reads U_k off the non-admissible slots of
the partially gauged product (its order-0 part off the slot where neither
argument is derived), and re-runs it again to check the order.  It
is slow (2N+1 full transforms) and independent of the recursion's
R_k - dU_k bookkeeping, so tests compare the two routes.
"""

from fractions import Fraction
from math import comb

from compose_oracle import _postcompose, _precompose, compose, op_sum
from starplane.diffop import BiDiffOp, DiffOp
from starplane.errors import CapExceeded, Inconsistent
from starplane.series import HSeries
from starplane.star import GaugeOp, StarProduct, spq_membership


def oracle_inverse(U: GaugeOp) -> GaugeOp:
    """V with V o U = 1 mod h^(N+1), by V_k = -sum_{q>=1} V_(k-q) o U_q."""
    inv = {}
    for k in range(1, U.n_order + 1):
        parts = []
        for q in range(1, k + 1):
            uq = U.orders.get(q)
            if uq is None:
                continue
            vk = inv.get(k - q) if k - q else DiffOp.identity()
            if vk is None:
                continue
            parts.append((-1, compose(vk, uq)))
        if parts and (vk := op_sum(parts)):
            inv[k] = vk
    return GaugeOp(U.n_order, inv)


def oracle_apply_series(U: GaugeOp, p) -> HSeries:
    """The h-series U(p) = p + sum h^k U_k(p)."""
    coeffs = [p] + [U.order_op(k).apply(p) for k in range(1, U.n_order + 1)]
    return HSeries(U.n_order, coeffs)


def oracle_gauge_transform(m: StarProduct, U: GaugeOp) -> StarProduct:
    """m'(f,g) = U^{-1}(m(Uf, Ug)), truncated at h^N, by exact composition."""
    if U.n_order < m.n_order:
        raise ValueError("gauge operator truncated below the product order")
    N = m.n_order
    V = oracle_inverse(U)
    new_orders = {}
    for k in range(1, N + 1):
        parts = [(1, BiDiffOp())]
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
                    parts.append((1, step3))
        new_orders[k] = op_sum(parts)
    return StarProduct(N, new_orders)


def _admissible(A, B):
    return A[1] == 0 and B[0] == 0 and A[0] >= 1 and B[1] >= 1


def oracle_normalize(m: StarProduct, max_op_order=None):
    """The (U, m') of normalize, re-gauging the whole product at every order."""
    N = m.n_order
    U = GaugeOp(N, {})
    for k in range(1, N + 1):
        known = oracle_gauge_transform(m, U).order_op(k)
        forced = {}
        for (A, B), c in known.terms.items():
            if _admissible(A, B):
                continue
            nu = (A[0] + B[0], A[1] + B[1])
            if A == B == (0, 0):
                # d(u.)(f, g) = -u f g: the order-0 part of U_k is -m'_k(1, 1)
                val = -c
            elif A == (0, 0) or B == (0, 0):
                raise Inconsistent(f"order {k}: the product is not associative through order {k}")
            else:
                val = c * Fraction(1, comb(nu[0], A[0]) * comb(nu[1], A[1]))
            if forced.setdefault(nu, val) != val:
                raise Inconsistent(f"order {k}: conflicting forced values at {nu}")
        if max_op_order is not None and any(sum(nu) > max_op_order for nu in forced):
            raise CapExceeded(f"order {k}: U needs derivative order beyond {max_op_order}")
        if forced:
            U = GaugeOp(N, {**U.orders, k: DiffOp(forced)})
        check = oracle_gauge_transform(m, U).order_op(k)
        for A, B in check.terms:
            if not _admissible(A, B):
                raise Inconsistent(f"order {k}: residual non-admissible term at {(A, B)}")
    out = oracle_gauge_transform(m, U)
    if not spq_membership(out):
        raise Inconsistent("normalized product failed the shape check")
    return U, out
