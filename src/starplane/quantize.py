"""Order-by-order construction of the unique admissible star product.

For a polynomial phi the product is fg + sum_k h^k phi K_k where K_1 is
dx (x) dy and each later K_k is the unique pure-shape operator solving
b(K_k) = T_k under vanishing Euler-Lagrange constraints on both axes.
That system is triangular: every kappa_ab except kappa_11 is read off one
slot of T_k, and kappa_11 follows from the x-axis Euler-Lagrange functional.
The read-off is then re-checked against b(K_k) = T_k on every slot of T_k
and both Euler-Lagrange functionals, which certifies every slot it did not
use.  All of it runs on integer numerators: T_k stays in the kernel's
integer form, never a polynomial operator; it is compared slot by slot with
the closed form of b(K_k) by cross-multiplication, and the functionals are
summed on K_k's numerators, so a check that passes builds no polynomial.

quantize_series extends the construction to formal series sum h^i psi_i:
order k of the product for phi_t = sum t^c psi_c is a polynomial in t, and
the recursion is linear over Q[t], so it runs on the t^d parts K_k[d], each
solved like a polynomial order, and the t^d part of order j lands at
h^(j+d).  _build runs it once, by total h-order; quantize is the case of
one part per order.  psi_(n-1) reaches h^n only as psi_(n-1) dx (x) dy, so
classify_p2 reads it off order n in the same pass: the round trip itself.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, perm

from .diffop import (_ONE, BiDiffOp, DiffOp, _accumulate, _lift, _rhs_form, _substitute_form,
                     euler_lagrange, hochschild_b_equals, substitute_sum)
from .errors import Infeasible, NotInImage, NotNormalized
from .poly import Poly2, _make
from .star import PoissonSeries, StarProduct, _check_order, spq_membership

_DXDY = ((1, 0), (0, 1))  # K_1 = dx (x) dy, the slot each psi_i first reaches


def solve_order(T, k: int) -> BiDiffOp:
    """The unique admissible pure-shape K_k with b(K_k) = T_k at order k >= 2.

    T, a TriDiffOp or a kernel form (_rhs_form), is read on its integer
    numerators; K_k holds kappa_ab on dx^a (x) dy^b, key ((a, 0), (0, b)).
    b(K) puts b * kappa_ab on the slot dx^a f dy g dy^(b-1) h and
    -a * kappa_ab on dx f dx^(a-1) g dy^b h, and no other kappa reaches
    either slot, so kappa_ab (b >= 2) and kappa_a1 (a >= 2) are read off T_k;
    kappa_11 = sum_{a>=2} (-1)^a dx^(a-1) kappa_a1 makes the x-axis
    Euler-Lagrange functional vanish at b = 1.  Everything here is linear
    over Q, so a t^d part T_k[d] of a series recursion gives K_k[d].

    The result is certified before it is returned: every slot of T must equal
    the closed-form slot of b(K) (hochschild_b_equals, integer
    cross-multiplication, no b(K) built) and T may have no other slot, and
    both Euler-Lagrange functionals must vanish (summed on K's integer
    numerators); any mismatch raises Infeasible.
    """
    den, terms = getattr(T, "_lifted", None) or _lift(T)
    reads = []  # (key, T's numerators on the slot, f): kappa = t / f
    for (A, B, C), flat in terms:
        if B == (0, 1) and A[0] >= 1 and A[1] == 0 and C[0] == 0 and C[1] >= 1:
            reads.append(((A, (0, C[1] + 1)), flat, C[1] + 1))
        elif A == (1, 0) and B[0] >= 1 and B[1] == 0 and C == (0, 1):
            reads.append((((B[0] + 1, 0), (0, 1)), flat, -B[0] - 1))
    scale = lcm(*(abs(f) for _, _, f in reads))  # every kappa is over den * scale
    nums, k11 = [], {}
    for key, flat, f in reads:
        num = {(i, j): v * (scale // f) for i, j, v in flat}
        nums.append((key, num))
        a = key[0][0]
        if key[1] == (0, 1):  # kappa_11 gets (-1)^a dx^(a-1) kappa_a1
            for (i, j), v in num.items():
                if i >= a - 1:
                    k11[i - a + 1, j] = k11.get((i - a + 1, j), 0) + (-1) ** a * v * perm(i, a - 1)
    nums.append((_DXDY, {e: v for e, v in k11.items() if v}))
    K = BiDiffOp._of({key: _make(num, den * scale) for key, num in nums if num})
    # dual-route verification: b(K) on every slot of T and both EL functionals
    if not hochschild_b_equals(K, T):
        raise Infeasible(f"order {k}: solution fails b(K) = T re-check")
    if euler_lagrange(K, "x") or euler_lagrange(K, "y"):
        raise Infeasible(f"order {k}: solution fails Euler-Lagrange re-check")
    return K


def _build(psi, N: int):
    """Yield (parts, kops), n = 1..N: the recursion for phi_t = sum t^c psi[c] by h-order.

    K_k has degree k-1 in phi_t and its t^d part K_k[d] lands at h^(k+d), as
    does m_j[d] = sum_{c+e=d} psi_c K_j[e], the t^d part of order j.  Step n
    solves each K_k[n-k], 2 <= k <= n and n-k <= (k-1)(len(psi)-1), from
    T_k[n-k], which reads only parts below h^n, then forms m_k[n-k], so each
    psi_c K_j[e] is formed once.  At the n-th yield parts holds the m_k[n-k],
    k >= 2, whose sum rest_n is order n less m_1[n-1] = psi_(n-1) dx (x) dy;
    then a caller may fill in psi[n-1], and m_1[n-1] joins parts.  Only
    K_k[d] = kops[k-1][d], a pure-shape BiDiffOp, gets Poly2 coefficients:
    T_k[d] and m_k[d] stay in the kernel's integer form.  psi = [phi] for a polynomial phi.
    """
    width = len(psi) - 1
    kops = [[BiDiffOp({_DXDY: 1})]] + [[] for _ in range(N - 1)]
    mops = [[] for _ in range(N)]
    mult = []  # mult[c] = DiffOp({(0, 0): psi[c]})
    for n in range(1, N + 1):
        parts = []
        for k in range(2, n + 1):
            if n - k <= (k - 1) * width:
                T = _rhs_form(k, n - k, kops, mops)
                # K = 0 is the one solution of an empty T: nothing to solve or certify
                kops[k - 1].append(solve_order(T, k) if T else BiDiffOp())
            if n - k <= k * width:
                items = [(1, mult[n - k - d], 0, K) for d, K in enumerate(kops[k - 1])
                         if n - k - d <= width and K and mult[n - k - d]]
                mops[k - 1].append(_substitute_form(items) if items else BiDiffOp())
                parts.append(mops[k - 1][-1])
        yield parts, kops
        if n <= len(psi):
            mult.append(DiffOp({(0, 0): psi[n - 1]}))
            mops[0].append(BiDiffOp({_DXDY: psi[n - 1]}))
            parts.append(mops[0][-1])


def _orders(psi, N: int):
    """({n: order n}, kops) of the product for sum h^i psi_i through h^N;
    each order is one kernel sum of its parts and keeps that integer form."""
    steps = list(_build(psi, N))
    return {n: substitute_sum([(1, op, 0, _ONE) for op in parts if op])
            for n, (parts, _) in enumerate(steps, 1) if any(parts)}, steps[-1][1]


# Products are read-only, so every caller may share the cached one.  The
# bound keeps memory flat in long runs.
@lru_cache(maxsize=256)
def _quantize_cached(phi: Poly2, N: int) -> StarProduct:
    orders, kops = _orders([phi], N)
    return StarProduct(N, orders, phi=phi, ktables={k: Ks[0] for k, Ks in enumerate(kops, 1)})


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
    slot raises NotInImage.  This is the round trip on every order and slot,
    compared on integer numerators: only each psi_(n-1) is built.
    """
    if not spq_membership(m):
        raise NotNormalized("classify_p2 requires a pure-shape product")
    N = m.n_order
    psi = [Poly2.zero()] * N
    for n, (parts, _) in enumerate(_build(psi, N), 1):
        _, den, left = _accumulate([(1, m.order_op(n), 0, _ONE)]
                                   + [(-1, op, 0, _ONE) for op in parts if op])
        if any(key != _DXDY for key, _ in left):
            raise NotInImage("product is not in the image of quantization")
        if left:
            psi[n - 1] = _make(left[0][1], den)
    return PoissonSeries(N - 1, psi)
