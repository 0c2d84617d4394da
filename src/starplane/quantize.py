"""Order-by-order construction of the unique admissible star product.

For a polynomial phi the product is fg + sum_k h^k phi K_k where K_1 is
dx (x) dy and each later K_k is the unique pure-shape operator solving
b(K_k) = T_k under vanishing Euler-Lagrange constraints on both axes.
That system is triangular: every kappa_ab except kappa_11 is read off one
slot of T_k, and kappa_11 follows from the x-axis Euler-Lagrange functional.
The read-off is then re-checked against b(K_k) = T_k on every slot of T_k
and both Euler-Lagrange functionals, which certifies every slot it did not
use.  All of it runs on integer numerators: T_k is a kernel result, read
only through its integer form, so it builds no Poly2 coefficient; it is
compared slot by slot with the closed form of b(K_k) by cross-multiplication,
and the functionals are summed on K_k's numerators, so a check that passes
builds no polynomial.

quantize_series extends the construction to formal series sum h^i psi_i:
order k of the product for phi_t = sum t^c psi_c is a polynomial in t, and
the recursion is linear over Q[t], so it runs on the t^d parts K_k[d], each
solved like a polynomial order, and the t^d part of order j lands at
h^(j+d).  _step runs it by total h-order, and its state is the K and m
tables and nothing else: quantize (one part per order) and quantize_series
sum each order off the state after h^N, and classify_p2 reads psi_(n-1) off
order n with the state after h^n, since psi_(n-1) reaches h^n only as
psi_(n-1) dx (x) dy: the round trip itself.

_step is a bounded lru_cache and the only cache: the state after h-order n
depends only on psi_0..psi_(n-2), so it is keyed by n and that prefix
without trailing zeros, which quantize_series's trimmed coefficients and
classify_p2's series read so far share.  So within one process classify_p2
on a product built earlier solves nothing, and quantize(phi, N) after
quantize(phi, N') solves only orders N'+1..N; each K_k[d] is certified when
it is first solved, and every quantize call sums a new product.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, perm

from .diffop import (_ONE, BiDiffOp, DiffOp, build_rhs_T, euler_lagrange, hochschild_b_equals,
                     substitute_sum)
from .errors import Infeasible, NotInImage, NotNormalized, UsageError
from .poly import Poly2
from .star import (PoissonSeries, StarProduct, _check_order, _check_poly, _check_product, _trim,
                   spq_membership)

_DXDY = ((1, 0), (0, 1))  # K_1 = dx (x) dy, the slot each psi_i first reaches


def solve_order(T, k: int) -> BiDiffOp:
    """The unique admissible pure-shape K_k with b(K_k) = T_k at order k >= 2.

    T, a TriDiffOp such as build_rhs_T's, is read on its integer
    numerators; K_k holds kappa_ab on dx^a (x) dy^b, key ((a, 0), (0, b)).
    b(K) puts b * kappa_ab on the slot dx^a f dy g dy^(b-1) h and
    -a * kappa_ab on dx f dx^(a-1) g dy^b h, and no other kappa reaches
    either slot, so kappa_ab (b >= 2) and kappa_a1 (a >= 2) are read off T_k;
    kappa_11 = sum_{a>=2} (-1)^a dx^(a-1) kappa_a1 makes the x-axis
    Euler-Lagrange functional vanish at b = 1.  K_k is born holding these
    numerators, divided by their common gcd, and builds no Poly2.  Everything
    here is linear over Q, so a t^d part T_k[d] of a series recursion gives
    K_k[d].

    The result is certified before it is returned: every slot of T must equal
    the closed-form slot of b(K) (hochschild_b_equals, integer
    cross-multiplication, no b(K) built) and T may have no other slot, and
    both Euler-Lagrange functionals must vanish (summed on K's integer
    numerators); any mismatch raises Infeasible.
    """
    den, terms = T._lifted
    reads = []  # (key, T's numerators on the slot, f): kappa = t / f
    for (A, B, C), flat in terms:
        if B == (0, 1) and A[0] >= 1 and A[1] == 0 and C[0] == 0 and C[1] >= 1:
            reads.append(((A, (0, C[1] + 1)), flat, C[1] + 1))
        elif A == (1, 0) and B[0] >= 1 and B[1] == 0 and C == (0, 1):
            reads.append((((B[0] + 1, 0), (0, 1)), flat, -B[0] - 1))
    scale = lcm(*(abs(f) for _, _, f in reads))  # every kappa is over den * scale
    kappas, k11 = [], {}
    for key, flat, f in reads:
        num = [(i, j, v * (scale // f)) for i, j, v in flat]
        kappas.append((key, num))
        a = key[0][0]
        if key[1] == (0, 1):  # kappa_11 gets (-1)^a dx^(a-1) kappa_a1
            for i, j, v in num:
                if i >= a - 1:
                    k11[i - a + 1, j] = k11.get((i - a + 1, j), 0) + (-1) ** a * v * perm(i, a - 1)
    k11 = [(i, j, v) for (i, j), v in k11.items() if v]
    if k11:
        kappas.append((_DXDY, k11))
    K = BiDiffOp._of_form(den * scale, kappas, reduce=True)
    # dual-route verification: b(K) on every slot of T and both EL functionals
    if not hochschild_b_equals(K, T):
        raise Infeasible(f"order {k}: solution fails b(K) = T re-check")
    if euler_lagrange(K, "x") or euler_lagrange(K, "y"):
        raise Infeasible(f"order {k}: solution fails Euler-Lagrange re-check")
    return K


# A state holds read-only operators in tuples, so every later step and
# caller may share it.  The bound keeps memory flat in long runs.
@lru_cache(maxsize=256)
def _step(n: int, prefix: tuple) -> tuple:
    """(kops, mops, mult): the recursion for phi_t = sum t^c psi_c after h-order n.

    K_k has degree k-1 in phi_t and its t^d part K_k[d] lands at h^(k+d), as
    does m_j[d] = sum_{c+e=d} psi_c K_j[e], the t^d part of order j.  Step n
    solves each K_k[n-k], 2 <= k <= n, from T_k[n-k], which reads only parts
    below h^n, then forms m_k[n-k], so each psi_c K_j[e] is formed once.
    Every part step n makes reads only psi_0..psi_(n-2), so prefix is those
    with trailing zeros dropped.  kops[k-1][d] = K_k[d] and mops[j-1][d] =
    m_j[d], a zero operator where a part is zero, so each index is the
    t-degree; mult[c] multiplies by psi_c, c <= n-2, and m_1[c] = psi_c
    dx (x) dy.  A part past the t-degree the prefix gives meets a zero
    operator in every term of its T_k[d], which is then empty: it is neither
    composed nor solved.  No part builds Poly2 coefficients: T_k[d]
    (build_rhs_T) and m_k[d] are kernel results that only the kernel reads,
    and K_k[d], a pure-shape BiDiffOp, is born from its solved numerators.
    Step n extends step n - 1, so a series whose prefix was built before in
    this process solves nothing again.
    """
    if n == 1:
        return ((BiDiffOp({_DXDY: 1}),),), ((),), ()
    kops, mops, mult = _step(n - 1, _trim(prefix[:n - 2]))
    kops = [list(row) for row in kops] + [[]]
    mops = [list(row) for row in mops] + [[]]
    new = prefix[n - 2:]  # (psi_(n-2),), or () when it is zero
    mult += (DiffOp({(0, 0): c for c in new}),)
    mops[0].append(BiDiffOp({_DXDY: c for c in new}))
    for k in range(2, n + 1):
        d = n - k
        T = build_rhs_T(k, d, kops, mops)
        # K = 0 is the one solution of an empty T: nothing to solve or certify
        kops[k - 1].append(solve_order(T, k) if T else BiDiffOp())
        items = [(1, mult[d - e], 0, K) for e, K in enumerate(kops[k - 1]) if K and mult[d - e]]
        mops[k - 1].append(substitute_sum(items) if items else BiDiffOp())
    return tuple(map(tuple, kops)), tuple(map(tuple, mops)), mult


def _rest(mops, n: int, sign: int) -> list:
    """Kernel items for sign * rest_n, rest_n = sum_{k>=2} m_k[n-k] (order n
    less m_1[n-1]), from a state after h-order n or later; zero parts left out."""
    return [(sign, mops[k - 1][n - k], 0, _ONE) for k in range(2, n + 1) if mops[k - 1][n - k]]


def _orders(psi, N: int):
    """({n: order n}, kops) of the product for sum h^i psi_i through h^N, read
    off the one state after h-order N; order n is a new kernel sum of rest_n
    and m_1[n-1], its terms built on first read."""
    kops, mops, _ = _step(N, _trim(psi[:N - 1]))
    # m_1[n-1] for n < N is the operator the state holds, so each is built once
    k1 = mops[0] + (BiDiffOp({_DXDY: c for c in psi[N - 1:N]}),)
    orders = {}
    for n in range(1, N + 1):
        items = _rest(mops, n, 1) + ([(1, k1[n - 1], 0, _ONE)] if k1[n - 1] else [])
        if items:
            orders[n] = substitute_sum(items)
    return orders, kops


def quantize(phi: Poly2, N: int) -> StarProduct:
    """Star product fg + sum h^k phi K_k of one polynomial phi, through h^N (an int >= 1)."""
    _check_poly(phi, "phi")
    _check_order(N)
    orders, kops = _orders([phi], N)
    return StarProduct(N, orders, phi=phi, ktables={k: Ks[0] for k, Ks in enumerate(kops, 1)})


# -- formal series inputs ----------------------------------------------------


def quantize_series(psi: PoissonSeries | list, N: int) -> StarProduct:
    """Quantize sum h^i psi_i exactly through h^N, N an int >= 1; psi is a
    PoissonSeries or a list of Poly2 (UsageError otherwise).

    psi_i first reaches the product at h^(i+1), so psi_i with i >= N is dropped;
    a series with one nonzero coefficient left goes through quantize, which
    attaches phi and ktables, and one with none has no parts.  The steps of
    the recursion stay in _step's cache, keyed by the coefficients they read,
    so classify_p2 on the result in the same process, or a later call that
    shares a prefix, reuses them.
    """
    _check_order(N)
    coeffs = psi.coeffs if isinstance(psi, PoissonSeries) else psi
    if not isinstance(coeffs, (list, tuple)) or not all(isinstance(c, Poly2) for c in coeffs):
        raise UsageError(f"psi must be a PoissonSeries or a list of Poly2, got {psi!r}")
    coeffs = _trim(list(coeffs)[:N])
    if len(coeffs) == 1:
        return quantize(coeffs[0], N)
    return StarProduct(N, _orders(coeffs, N)[0])


def classify_p2(m: StarProduct) -> PoissonSeries:
    """Invert quantization on a pure-shape associative product.

    Order n of the product for psi is rest_n + psi_(n-1) dx (x) dy, and
    rest_n reads only psi_0..psi_(n-2), so step n of the recursion, keyed by
    the series read so far, gives rest_n; m_n - rest_n may hold only the
    dx (x) dy slot, whose coefficient is psi_(n-1), and any other slot raises
    NotInImage.  This is the round trip on every order and slot, compared on
    integer numerators: only the terms of m_n - rest_n are built.
    quantize_series gave each step the same key, so on a product built
    earlier in this process every step comes from _step's cache and only the
    comparison runs; a cold step builds no part past the series read so far.
    """
    _check_product(m)
    if not spq_membership(m):
        raise NotNormalized("classify_p2 requires a pure-shape product")
    psi = []
    for n in range(1, m.n_order + 1):
        mops = _step(n, _trim(psi))[1]
        left = substitute_sum([(1, m.order_op(n), 0, _ONE)] + _rest(mops, n, -1)).terms
        if any(key != _DXDY for key in left):
            raise NotInImage("product is not in the image of quantization")
        psi.append(left.get(_DXDY, Poly2.zero()))
    return PoissonSeries(m.n_order - 1, psi)
