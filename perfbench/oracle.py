"""Independent checks for star products on the plane.

Nothing here imports starplane's arithmetic: polynomials are plain dicts
{(i, j): Fraction} and operators are dicts {key: polynomial}.  Engine
objects are read only through their `.terms` / `.orders` data (see the
`*_of` converters), so a fault in `Poly2` or the operator algebra cannot
hide itself here.

Every check returns a list of failure strings; an empty list means pass.
Shape, order 1, the Euler-Lagrange conditions and associativity together
determine a product of the form fg + sum h^k phi K_k uniquely, so
`certify_quantization` certifies an answer instead of comparing it with a
stored copy.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as tuples
from math import factorial, perm

# -- polynomials as dicts -----------------------------------------------------


def p_clean(p):
    return {e: c for e, c in p.items() if c}


def p_add(p, q, s=1):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + s * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def p_scale(p, c):
    return {e: v * c for e, v in p.items()} if c else {}


def p_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return p_clean(out)


def p_d(p, nx, ny):
    """d^nx/dx^nx d^ny/dy^ny p."""
    out = {}
    for (i, j), c in p.items():
        if i >= nx and j >= ny:
            out[(i - nx, j - ny)] = c * perm(i, nx) * perm(j, ny)
    return out


def _lead(p):
    return max(p, key=lambda e: (e[0] + e[1], e[0]))


def p_divexact(p, q):
    """Quotient of p by q, or None when q does not divide p."""
    rem, quo = dict(p), {}
    le = _lead(q)
    lc = q[le]
    while rem:
        re_ = _lead(rem)
        di, dj = re_[0] - le[0], re_[1] - le[1]
        if di < 0 or dj < 0:
            return None
        c = rem[re_] / lc
        quo[(di, dj)] = c
        rem = p_add(rem, p_mul({(di, dj): c}, q), -1)
    return quo


# -- converters from engine objects -------------------------------------------


def poly_of(p):
    return p_clean(dict(p.terms))


def op_of(op):
    """Any engine operator (DiffOp / BiDiffOp / TriDiffOp) as {key: poly}."""
    return {k: poly_of(c) for k, c in op.terms.items() if c.terms}


def product_of(m):
    """A StarProduct as (N, {k: {((ax, ay), (bx, by)): poly}}), k = 1..N."""
    return m.n_order, {k: op_of(op) for k, op in m.orders.items() if op.terms}


def gauge_of(u):
    return u.n_order, {k: op_of(op) for k, op in u.orders.items() if op.terms}


# -- operator application -----------------------------------------------------


def apply_bi(op, f, g):
    out = {}
    df, dg = {}, {}
    for ((ax, ay), (bx, by)), c in op.items():
        if (ax, ay) not in df:
            df[(ax, ay)] = p_d(f, ax, ay)
        if (bx, by) not in dg:
            dg[(bx, by)] = p_d(g, bx, by)
        a, b = df[(ax, ay)], dg[(bx, by)]
        if a and b:
            out = p_add(out, p_mul(c, p_mul(a, b)))
    return out


def apply_un(op, f):
    out = {}
    for (i, j), c in op.items():
        out = p_add(out, p_mul(c, p_d(f, i, j)))
    return out


def constant_series(p, N):
    return [p] + [{}] * N


def star_series(orders, N, F, G):
    """(F * G) for h-series F, G (lists of N+1 polys) under fg + sum h^k m_k."""
    out = [{} for _ in range(N + 1)]
    for p in range(N + 1):
        for q in range(N + 1 - p):
            if not F[p] or not G[q]:
                continue
            out[p + q] = p_add(out[p + q], p_mul(F[p], G[q]))
            for k in range(1, N + 1 - p - q):
                if k in orders:
                    out[p + q + k] = p_add(out[p + q + k], apply_bi(orders[k], F[p], G[q]))
    return out


def top_orders(indices):
    """Largest x- and y-orders among derivative multi-indices (i, j)."""
    dx = dy = 0
    for i, j in indices:
        dx, dy = max(dx, i), max(dy, j)
    return dx, dy


def product_indices(orders):
    return (idx for op in orders.values() for key in op for idx in key)


def sample_poly(rng, dx, dy, extra=2):
    """A sparse seeded polynomial whose x- and y-degrees reach (dx, dy)."""
    terms = {(dx, dy): rng_rational(rng)}
    for _ in range(extra):
        terms[(rng.randint(0, dx), rng.randint(0, dy))] = rng_rational(rng)
    return p_clean(terms)


def rng_rational(rng, num=9, den=4):
    while True:
        n = rng.randint(-num, num)
        if n:
            return Fraction(n, rng.randint(1, den))


# -- checks -------------------------------------------------------------------


def check_shape(orders):
    bad = [(k, key) for k, op in orders.items() for key in op
           if not (key[0][1] == 0 and key[1][0] == 0 and key[0][0] >= 1 and key[1][1] >= 1)]
    return [f"shape: order {k} has non-pure slot {key}" for k, key in bad[:3]]


def check_associative(orders, N, rng, triples=1):
    """Associativity through h^N on seeded triples that reach the top derivative orders."""
    dx, dy = top_orders(product_indices(orders))
    fails = []
    for t in range(triples):
        f, g, h = (constant_series(sample_poly(rng, dx, dy), N) for _ in range(3))
        left = star_series(orders, N, star_series(orders, N, f, g), h)
        right = star_series(orders, N, f, star_series(orders, N, g, h))
        for n in range(N + 1):
            if left[n] != right[n]:
                fails.append(f"associativity: triple {t} differs at h^{n}")
                break
    return fails


def kappa_tables(phi, orders):
    """K_k = m_k / phi entry by entry, or a failure list if phi does not divide."""
    tables, fails = {}, []
    for k, op in orders.items():
        K = {}
        for ((ax, _), (_, by)), c in op.items():
            q = p_divexact(c, phi)
            if q is None:
                fails.append(f"order {k}: coefficient at {(ax, by)} is not divisible by phi")
            else:
                K[(ax, by)] = q
        tables[k] = K
    return tables, fails


def check_euler_lagrange(tables):
    """Both EL functionals vanish on every K_k with k >= 2 (K_1 = dx (x) dy is fixed)."""
    fails = []
    for k, K in tables.items():
        if k < 2:
            continue
        for axis in ("x", "y"):
            acc = {}
            for (a, b), kappa in K.items():
                if axis == "x":
                    key, val = b, p_scale(p_d(kappa, a - 1, 0), (-1) ** (a - 1))
                else:
                    key, val = a, p_scale(p_d(kappa, 0, b - 1), (-1) ** (b - 1))
                acc[key] = p_add(acc.get(key, {}), val)
            nz = sorted(i for i, v in acc.items() if v)
            if nz:
                fails.append(f"Euler-Lagrange: order {k}, {axis}-axis functional nonzero at {nz[:3]}")
    return fails


def order2_closed_form(phi):
    """phi * K_2 with kappa = (phi_xy, phi_y, phi_x, phi) / 2 at (1,1), (2,1), (1,2), (2,2)."""
    half = Fraction(1, 2)
    K2 = {(1, 1): p_d(phi, 1, 1), (2, 1): p_d(phi, 0, 1), (1, 2): p_d(phi, 1, 0), (2, 2): phi}
    return {((a, 0), (0, b)): p_scale(p_mul(phi, kappa), half)
            for (a, b), kappa in K2.items() if kappa}


def certify_quantization(phi, orders, N, rng, triples=1):
    """Shape, order 1, order-2 closed form, both EL functionals, associativity."""
    fails = check_shape(orders)
    if fails:
        return fails
    if orders.get(1, {}) != {((1, 0), (0, 1)): phi}:
        fails.append("order 1 is not phi dx (x) dy")
    if N >= 2 and orders.get(2, {}) != order2_closed_form(phi):
        fails.append("order 2 differs from the closed form phi (phi_xy, phi_y, phi_x, phi)/2")
    tables, div_fails = kappa_tables(phi, orders)
    fails += div_fails
    fails += check_euler_lagrange(tables)
    fails += check_associative(orders, N, rng, triples)
    return fails


def check_gauge_inverse(W, U, N, rng, polys=2):
    """(W o U)(p) = p through h^N on seeded test polynomials."""
    dx, dy = top_orders(key for ops in (U, W) for op in ops.values() for key in op)
    fails = []
    for t in range(polys):
        p = sample_poly(rng, dx + 1, dy + 1)
        Up = [p] + [apply_un(U[j], p) if j in U else {} for j in range(1, N + 1)]
        for n in range(1, N + 1):
            acc = {}
            for i in range(n + 1):
                v = Up[n - i]
                if i:
                    v = apply_un(W[i], v) if i in W else {}
                acc = p_add(acc, v)
            if acc:
                fails.append(f"gauge: (W o U) differs from 1 at h^{n} on test polynomial {t}")
                break
    return fails


def moyal_normal_form(c, N):
    """Normal-ordered Moyal product c^k/k! dx^k (x) dy^k and U_1 = -(c/2) dx dy."""
    orders = {k: {((k, 0), (0, k)): {(0, 0): Fraction(c) ** k / factorial(k)}}
              for k in range(1, N + 1)}
    return orders, {(1, 1): {(0, 0): -Fraction(c) / 2}}


def check_density(phi, f, tau):
    """f - 1/phi = d/dy tau order by order; f, tau are lists of (num, power)
    standing for num / phi^power."""
    phi_y = p_d(phi, 0, 1)
    fails = []
    for n, ((fn, fp), (tn, tp)) in enumerate(zip(f, tau)):
        if n == 0:  # f_0 - 1/phi over the common denominator phi^max(fp, 1)
            lp = max(fp, 1)
            ln = p_add(_times_phi_pow(fn, phi, lp - fp), _times_phi_pow({(0, 0): 1}, phi, lp - 1), -1)
        else:
            ln, lp = fn, fp
        # d/dy (tn / phi^tp) = (tn_y phi - tp tn phi_y) / phi^(tp+1)
        rn = p_add(p_mul(p_d(tn, 0, 1), phi), p_scale(p_mul(tn, phi_y), tp), -1)
        rp = tp + 1
        top = max(lp, rp)
        if _times_phi_pow(ln, phi, top - lp) != _times_phi_pow(rn, phi, top - rp):
            fails.append(f"density: f - 1/phi != d/dy tau at h^{n}")
    return fails


def _times_phi_pow(p, phi, n):
    for _ in range(n):
        p = p_mul(p, phi)
    return p


def apply_word(letters, order, axis, f):
    """(L_{l[o0]} o L_{l[o1]} o ...)(f) with L_l = l * d/dx (or d/dy)."""
    nx, ny = (1, 0) if axis == "x" else (0, 1)
    for idx in reversed(order):
        f = p_mul(letters[idx], p_d(f, nx, ny))
    return f


def check_lie_fit(phi, target, lambdas, k, rng, pairs=2):
    """Re-substitute the fitted Lambda into the Lie-word ansatz on test pairs.

    phi = sum_i xi_i(x) eta_i(y) over its monomials; target is m_{k+1}.
    """
    sep = [({(i, 0): c}, {(0, j): Fraction(1)}) for (i, j), c in phi.items()]
    fails = []
    for t in range(pairs):
        f = sample_poly(rng, k + 2, 1)
        g = sample_poly(rng, 1, k + 2)
        want = apply_bi(target, f, g)
        got = {}
        for tup in tuples(range(len(sep)), repeat=k + 1):
            xis = [sep[i][0] for i in tup]
            etas = [sep[i][1] for i in tup]
            xw, yw = {}, {}
            for (s, tw), lam in lambdas.items():
                if not lam:
                    continue
                if s not in xw:
                    xw[s] = apply_word(xis, [0] + [1 + s[i] for i in range(k)], "x", f)
                if tw not in yw:
                    yw[tw] = apply_word(etas, [0] + [1 + tw[i] for i in range(k)], "y", g)
                got = p_add(got, p_scale(p_mul(xw[s], yw[tw]), lam))
        if got != want:
            fails.append(f"lie fit: Lambda does not re-substitute on test pair {t}")
    return fails
