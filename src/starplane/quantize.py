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
h^(j+d).  _build runs it once, by total h-order; quantize is the case of
one part per order.  psi_(n-1) reaches h^n only as psi_(n-1) dx (x) dy, so
classify_p2 reads it off order n in the same pass: the round trip itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .diffop import BiDiffOp, KTable, build_rhs_T, euler_lagrange, hochschild_b_equals
from .errors import Infeasible, NotInImage, NotNormalized, UsageError
from .poly import Poly2
from .star import PoissonSeries, StarProduct, spq_membership

_DXDY = ((1, 0), (0, 1))  # K_1 = dx (x) dy, the slot each psi_i first reaches


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
    """Yield (rest_n, ktables), n = 1..N: the recursion for phi_t = sum t^c psi[c] by h-order.

    K_k has degree k-1 in phi_t and its t^d part K_k[d] lands at h^(k+d), as
    does m_j[d] = sum_{c+e=d} psi_c K_j[e], the t^d part of order j.  Step n
    solves each K_k[n-k], 2 <= k <= n and n-k <= (k-1)(len(psi)-1), from
    T_k[n-k] = build_rhs_T(k, n-k, ...), which reads only parts below h^n,
    then forms m_k[n-k], so each psi_c K_j[e] is formed once.  rest_n, the
    sum of the m_k[n-k], is order n less m_1[n-1] = psi_(n-1) dx (x) dy, so
    psi[n-1] is read after the n-th yield and a caller may fill it in then.
    ktables[k-1][d] is K_k[d].  A polynomial phi is psi = [phi].
    """
    width = len(psi) - 1
    ktables = [[KTable({(1, 1): 1})]] + [[] for _ in range(N - 1)]
    kops = [[ktables[0][0].to_bidiff()]] + [[] for _ in range(N - 1)]
    mops = [[] for _ in range(N)]
    for n in range(1, N + 1):
        rest = []
        for k in range(2, n + 1):
            if n - k <= (k - 1) * width:
                ktables[k - 1].append(solve_order(build_rhs_T(k, n - k, kops, mops), k))
                kops[k - 1].append(ktables[k - 1][-1].to_bidiff())
            if n - k <= k * width:
                ms = [K.scale(psi[n - k - d]) for d, K in enumerate(kops[k - 1])
                      if n - k - d <= width and K and psi[n - k - d]]
                mops[k - 1].append(sum(ms[1:], ms[0]) if ms else BiDiffOp())
                rest.append(mops[k - 1][-1])
        yield sum(rest[1:], rest[0]) if rest else BiDiffOp(), ktables
        if n <= len(psi):
            mops[0].append(BiDiffOp({_DXDY: psi[n - 1]}))


def _orders(psi, N: int):
    """({n: order n}, ktables) of the product for sum h^i psi_i through h^N."""
    orders = {}
    for n, (rest, ktables) in enumerate(_build(psi, N), 1):
        orders[n] = rest + BiDiffOp({_DXDY: psi[n - 1]}) if n <= len(psi) else rest
    return orders, ktables


# Products are read-only, so every caller may share the cached one.  The
# bound keeps memory flat in long runs.
@lru_cache(maxsize=256)
def _quantize_cached(phi: Poly2, N: int) -> StarProduct:
    orders, ktables = _orders([phi], N)
    return StarProduct(N, orders, phi=phi, ktables={k: Ks[0] for k, Ks in enumerate(ktables, 1)})


def quantize(phi: Poly2, N: int) -> StarProduct:
    """Star product fg + sum h^k phi K_k of one polynomial phi, through h^N (an int >= 1)."""
    _check_order(N)
    return _quantize_cached(phi, N)


# -- formal series inputs ----------------------------------------------------


def quantize_series(psi: PoissonSeries | list, N: int) -> StarProduct:
    """Quantize sum h^i psi_i exactly through h^N, N an int >= 1.

    psi_i first reaches the product at h^(i+1), so psi_i with i >= N is dropped;
    a series with one nonzero coefficient left goes through the cached quantize,
    and one with none has no parts.
    """
    _check_order(N)
    coeffs = list(psi.coeffs if isinstance(psi, PoissonSeries) else psi)[:N]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if len(coeffs) == 1:
        return quantize(coeffs[0], N)
    return StarProduct(N, _orders(coeffs, N)[0])


def classify_p2(m: StarProduct) -> PoissonSeries:
    """Invert quantization on a pure-shape associative product.

    One pass of _build with psi = [0] * N, filled in as it goes: order n of
    the product for psi is rest_n + psi_(n-1) dx (x) dy, so m_n - rest_n may
    hold only the dx (x) dy slot, whose coefficient is psi_(n-1); any other
    slot raises NotInImage.  This is the round trip on every order and slot.
    """
    if not spq_membership(m):
        raise NotNormalized("classify_p2 requires a pure-shape product")
    N = m.n_order
    if any(not 1 <= n <= N for n in m.orders):
        raise NotInImage("product is not in the image of quantization")
    psi = [Poly2.zero()] * N
    for n, (rest, _) in enumerate(_build(psi, N), 1):
        left = (m.order_op(n) - rest).terms
        if set(left) - {_DXDY}:
            raise NotInImage("product is not in the image of quantization")
        psi[n - 1] = left.get(_DXDY, Poly2.zero())
    return PoissonSeries(N - 1, psi)
