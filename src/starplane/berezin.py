"""Berezin data for a normalized star product on the plane.

The adjoint operator (1/h) ad x acts on g only through y-derivatives; it
factors as phi dy (1 + S dy) for a unique y-operator S = O(h).  The density
f then solves phi (1 + dy S) f = 1 and differs from 1/phi by an exact
y-derivative, witnessed by tau = -S f.  All coefficients live in the ring of
polynomials localized at phi, so everything stays exact.

A y-operator sum_b w_b dy^b is held as the dict {b: w_b}, each w_b an HSeries
of LocalizedFn and no w_b zero; apply_S applies one to a series.
"""

from __future__ import annotations

from .diffop import Record
from .errors import IntegrationObstruction, NotNormalized
from .localized import LocalizedFn
from .poly import Poly2, _make
from .quantize import quantize
from .series import HSeries
from .star import StarProduct, _check_order, extract_poisson_p3, spq_membership


def apply_S(S: dict, f: HSeries) -> HSeries:
    """S f for the y-operator S = {b: w_b}, which stands for sum_b w_b dy^b."""
    out = f * 0
    for b, w in S.items():
        out = out + w * f.dy(b)
    return out


class BerezinData(Record):
    """The y-operator S = {b: w_b}, the density f and the witness tau of
    f - 1/phi = dy(tau), exact through h^n_order."""

    __slots__ = ("S", "f", "tau", "phi", "n_order")

    def __init__(self, S: dict, f: HSeries, tau: HSeries, phi: Poly2, n_order: int):
        self.S = S
        self.f = f
        self.tau = tau
        self.phi = phi
        self.n_order = n_order


def ad_x(m: StarProduct, phi: Poly2) -> dict:
    """(1/h)(x * g - g * x) as the y-operator {b: w_b}, read off the a = 1 column.

    Against f = x only single x-derivatives survive, and m_k(g, x) vanishes
    because the second slot only sees y-derivatives.  Read off each order's
    integer form: on a pure shape, ((1, 0), (0, b)) is the one a = 1 slot of
    dy-order b, so it is w_b's h^(k-1) coefficient whole, through h^(n_order - 1).
    """
    if not spq_membership(m):
        raise NotNormalized("ad_x requires a normalized (pure-shape) product")
    p3 = extract_poisson_p3(m)
    if p3.coeffs[0] != phi:
        raise NotNormalized("phi does not match the leading Poisson coefficient")
    N = m.n_order - 1
    zero = LocalizedFn(0, 0, phi)
    terms = {}
    for k in range(1, m.n_order + 1):
        den, lifted = m.order_op(k)._lifted
        for ((ax, _), (_, by)), flat in lifted:
            if ax == 1:
                c = _make({(i, j): v for i, j, v in flat}, den)
                terms.setdefault(by, [zero] * (N + 1))[k - 1] = LocalizedFn(c, 0, phi)
    return {b: HSeries(N, w) for b, w in terms.items()}


def extract_S(W: dict, phi: Poly2) -> dict:
    """Solve phi dy (1 + S dy) = W for the finite S = sum_j s_j dy^j, S = O(h).

    W and S are y-operators {b: HSeries}, without zero series.  Matching the
    dy^b coefficient of both sides gives the triangular system
    s_{b-1}' + s_{b-2} = v_b (primes are d/dy on coefficients) with
    V = W/phi - dy and the b = 1 slot reading s_0' = v_1.  A finite S exists
    only when the chain is cut from the top: with B + 1 the highest dy-order
    of W, set s_B = 0 and back-substitute s_{b-2} = v_b - s_{b-1}' downward;
    the leftover b = 1 slot is then a consistency check.  (Solving upward by
    y-antiderivatives instead generically produces an infinite tail: a
    nonzero s_{j-1} forces a nonzero s_j.)

    v_b = W_b/phi is the pipeline's one division (div_phi), exact where phi
    divides, so S stays polynomial where it can; no later form is reduced
    until a document prints it.
    """
    N = min((w.order for w in W.values()), default=0)
    zero = HSeries.constant(LocalizedFn(0, 0, phi), N)
    v = {b: HSeries(w.order, [c.div_phi() for c in w.coeffs]) for b, w in W.items()}
    v[1] = v.get(1, zero) - HSeries.constant(LocalizedFn(1, 0, phi), N)
    maxb = max(v, default=1)
    s = {j: zero for j in range(max(maxb - 2, 0) + 1)}
    for b in range(maxb, 1, -1):
        s[b - 2] = v.get(b, zero) - s.get(b - 1, zero).dy()
    if s[0].dy() != v.get(1, zero):
        raise IntegrationObstruction("no finite S: the dy^1 slot is inconsistent")
    S = {j: sj for j, sj in s.items() if sj}
    if any(w[0] for w in S.values()):
        raise IntegrationObstruction("extracted S has a nonzero h^0 part")
    return S


def density_f(phi: Poly2, S: dict, N: int) -> BerezinData:
    """Unique f with phi (1 + dy S) f = 1 mod h^(N+1), via the fixed point
    f = 1/phi - dy(S f); tau = -S f certifies f - 1/phi = dy(tau).

    S = O(h), so (S f)_n = sum_b sum_{i=1..n} w_b[i] dy^b f_(n-i) reads f only
    through h^(n-1): f is formed in one pass, order by order, and each
    dy^b f_m once.  tau is then one application of S to the whole f.
    """
    inv = LocalizedFn.one_over_phi(phi)
    coeffs = [inv]
    dfs = {b: [inv.dy(b)] for b in S}  # dfs[b][m] = dy^b f_m
    for n in range(1, N + 1):
        sf_n = sum((w[i] * dfs[b][n - i] for b, w in S.items() for i in range(1, n + 1) if w[i]),
                   LocalizedFn(0, 0, phi))
        coeffs.append(-sf_n.dy())
        for b in S:
            dfs[b].append(coeffs[n].dy(b))
    f = HSeries(N, coeffs)
    sf = apply_S(S, f)
    tau = -sf
    # defining identity, exact through h^N
    lhs = (f + sf.dy()) * LocalizedFn(phi, 0, phi)
    one = HSeries.constant(LocalizedFn(1, 0, phi), N)
    if lhs != one:
        raise IntegrationObstruction("density identity phi(1 + dy S)f = 1 failed")
    return BerezinData(S=S, f=f, tau=tau, phi=phi, n_order=N)


def berezin_pipeline(phi: Poly2, N: int) -> BerezinData:
    """quantize -> ad_x -> S -> density, all exact through h^N (an int >= 1)."""
    _check_order(N)
    m = quantize(phi, N + 1)
    W = ad_x(m, phi)
    S = extract_S(W, phi)
    return density_f(phi, S, N)
