"""Order-by-order construction of the unique admissible star product.

For a polynomial phi the product is fg + sum_k h^k phi K_k where K_1 is
dx (x) dy and each later K_k is the unique pure-shape table solving
b(K_k) = T_k under vanishing Euler-Lagrange constraints on both axes.
That system is triangular: every kappa_ab except kappa_11 is read off one
slot of T_k, and kappa_11 follows from the x-axis Euler-Lagrange functional.
The read-off is then re-checked against b(K_k) = T_k on every slot of T_k
and both Euler-Lagrange functionals, which certifies every slot it did not
use.  Both certificates run on integer numerators and closed forms: T_k is
compared slot by slot with the closed form of b(K_k) by integer
cross-multiplication, and the functionals are summed on K_k's numerators,
so no polynomial is built for a check that passes.

quantize_series extends the construction to formal series sum h^i psi_i:
order k of the product for phi_t = sum t^c psi_c is a polynomial in t, and
the recursion is linear over Q[t], so it runs on the t^d parts K_k[d], each
solved like a polynomial order, and the t^d part of order j lands at
h^(j+d).  quantize is the case of one part per order.  classify_p2 inverts
the construction one h-order at a time and certifies the result by a round
trip that reuses its last Newton product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .diffop import BiDiffOp, KTable, build_rhs_T, euler_lagrange, hochschild_b_equals
from .errors import Infeasible, NotInImage, NotNormalized, UsageError
from .poly import Poly2
from .star import PoissonSeries, StarProduct, extract_poisson_p3, spq_membership


def _check_order(N) -> None:
    if type(N) is not int or N < 1:
        raise UsageError(f"order must be an integer >= 1, got {N!r}")


def solve_order(T, k: int) -> KTable:
    """The unique admissible KTable with b(K_k) = T_k at order k >= 2.

    T is build_rhs_T's T_k.  b(K) puts b * kappa_ab on the slot
    dx^a f dy g dy^(b-1) h and -a * kappa_ab on dx f dx^(a-1) g dy^b h, and no
    other kappa reaches either slot, so kappa_ab (b >= 2) and kappa_a1 (a >= 2)
    are read off T_k; kappa_11 = sum_{a>=2} (-1)^a dx^(a-1) kappa_a1 makes the
    x-axis Euler-Lagrange functional vanish at b = 1.  Everything here is
    linear over Q, so a t^d part T_k[d] of a series recursion gives K_k[d].

    The result is certified before it is returned: every slot of T must equal
    the closed-form slot of b(K) (hochschild_b_equals, integer
    cross-multiplication, no b(K) built) and T may have no other slot, and
    both Euler-Lagrange functionals must vanish (summed on K's integer
    numerators); any mismatch raises Infeasible.
    """
    table = {}
    for (A, B, C), t in T.terms.items():
        if B == (0, 1) and A[0] >= 1 and A[1] == 0 and C[0] == 0 and C[1] >= 1:
            table[(A[0], C[1] + 1)] = t * Fraction(1, C[1] + 1)
        elif A == (1, 0) and B[0] >= 1 and B[1] == 0 and C == (0, 1):
            table[(B[0] + 1, 1)] = t * Fraction(-1, B[0] + 1)
    k11 = [((1, 1), kappa.dx(a - 1) * (-1) ** a) for (a, b), kappa in table.items() if b == 1]
    K = KTable(list(table.items()) + k11)
    # dual-route verification: b(K) on every slot of T and both EL functionals
    if not hochschild_b_equals(K, T):
        raise Infeasible(f"order {k}: solution fails b(K) = T re-check")
    if euler_lagrange(K, "x") or euler_lagrange(K, "y"):
        raise Infeasible(f"order {k}: solution fails Euler-Lagrange re-check")
    return K


def _build(psi, N: int):
    """(ktables, mops) of the recursion for phi_t = sum t^c psi[c] through h^N.

    K_k has degree k-1 in phi_t and its t^d part lands at h^(k+d), so
    ktables[k-1] lists K_k[d] for d <= min(N-k, (k-1)(len(psi)-1)), each
    solved from T_k[d] = build_rhs_T(k, d, ...).  mops[j-1] lists
    m_j[e] = sum_{c+d=e} psi_c K_j[d] for e <= min(N-j, j(len(psi)-1)): the
    product's t^e part of order j, read by every later order, so each
    product psi_c K_j[d] is formed once.  A polynomial phi is psi = [phi]:
    one part per order.
    """
    ktables = [[KTable({(1, 1): 1})]]
    kops, mops = [], []
    for k in range(1, N + 1):
        if k > 1:
            ktables.append([solve_order(build_rhs_T(k, d, kops, mops), k)
                            for d in range(min(N - k, (k - 1) * (len(psi) - 1)) + 1)])
        kops.append([K.to_bidiff() for K in ktables[-1]])
        parts = [[] for _ in range(min(N - k, k * (len(psi) - 1)) + 1)]
        for d, K in enumerate(kops[-1]):
            for c, p in enumerate(psi[:len(parts) - d]):
                if p and K:
                    parts[c + d].append(K.scale(p))
        mops.append([sum(ms[1:], ms[0]) if ms else BiDiffOp() for ms in parts])
    return ktables, mops


# Products are read-only, so every caller may share the cached one.  The
# bound keeps memory flat in long runs.
@lru_cache(maxsize=256)
def _quantize_cached(phi: Poly2, N: int) -> StarProduct:
    ktables, mops = _build([phi], N)
    return StarProduct(N, {k: ms[0] for k, ms in enumerate(mops, 1)}, phi=phi,
                       ktables={k: Ks[0] for k, Ks in enumerate(ktables, 1)})


def quantize(phi: Poly2, N: int) -> StarProduct:
    """Star product fg + sum h^k phi K_k of one polynomial phi, through h^N (an int >= 1)."""
    _check_order(N)
    return _quantize_cached(phi, N)


# -- formal series inputs ----------------------------------------------------


def quantize_series(psi: PoissonSeries | list, N: int) -> StarProduct:
    """Quantize sum h^i psi_i exactly through h^N, N an int >= 1.

    The order-j part of quantize(phi) is homogeneous of degree j in phi, so
    for phi_t = sum t^i psi_i the t^e part m_j[e] of order j lands at
    h^(j+e); _build forms exactly the parts with j + e <= N.  Hence psi_i
    with i >= N cannot reach h^N and is dropped, and a series with one
    nonzero coefficient left goes through the cached quantize.
    """
    _check_order(N)
    coeffs = list(psi.coeffs if isinstance(psi, PoissonSeries) else psi)[:N]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        return StarProduct(N, {})
    if len(coeffs) == 1:
        return quantize(coeffs[0], N)
    orders = {n: [] for n in range(1, N + 1)}
    for j, ms in enumerate(_build(coeffs, N)[1], 1):
        for e, m in enumerate(ms):
            orders[j + e] += m.terms.items()
    return StarProduct(N, {n: BiDiffOp(terms) for n, terms in orders.items()})


def classify_p2(m: StarProduct) -> PoissonSeries:
    """Invert quantization on a pure-shape associative product.

    Newton-style: psi_j is read off from the h^j mismatch of the skew
    evaluations, which m_(j+1) alone carries, and orders <= j+1 of a series
    product do not depend on its truncation, so step j quantizes only
    through h^(j+1).  The round trip quantize_series(psi, N) == m is then
    asserted on every order and slot.  The last step's product already
    quantizes psi_0..psi_(N-2) through h^N, and psi_(N-1) reaches h^N only
    through K_1, as h^N psi_(N-1) dx (x) dy, so that one term completes it.
    """
    if not spq_membership(m):
        raise NotNormalized("classify_p2 requires a pure-shape product")
    N = m.n_order
    target = extract_poisson_p3(m).coeffs  # length N, indices 0..N-1
    psi = []
    for j in range(N):
        q = quantize_series(psi, j + 1)
        got = extract_poisson_p3(q).coeffs
        psi.append(target[j] - got[j])
    result = PoissonSeries(N - 1, psi)
    top = q.order_op(N) + BiDiffOp({((1, 0), (0, 1)): psi[-1]})
    final = StarProduct(N, {**q.orders, N: top})
    if final != m:
        raise NotInImage("product is not in the image of quantization")
    return result
