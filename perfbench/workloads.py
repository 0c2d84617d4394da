"""The three workloads: seeded inputs, the timed operations, and their checks.

A pass is a list of groups; a group is the chain of operations on one input
(quantize_series then classify_p2, say).  Every pass of a workload runs the
same operations on fresh inputs of the same make-up: seeded random rational
coefficients on fixed monomial supports, so another seed gives a comparable
cost.  The runner clears starplane's caches before each group, so
`quantize`'s cache answers a timed call only with a product built earlier in
the same group (as `classify_p2` reuses `quantize_series`'s products).

Each operation also renders its result to the CLI's JSON form, as the CLI
would.  Checks run after the timed pass and rely on `oracle`, never on
starplane's own arithmetic.
"""

from __future__ import annotations

import json
import sys

import oracle as O

# Set by bind(): the starplane package and its docs module.  Calls go through
# module attributes at call time, so the tracer's wrappers see them.
sp = None


def bind(package):
    global sp
    sp = package


class Group:
    """Operations on one input; a step that raises fails the steps after it."""

    def __init__(self, label, steps, check):
        self.label = label
        self.steps = steps  # [(operation name, fn(state))]
        self.check = check  # fn(state, rng) -> [failure]
        self.state = {"docs": []}
        self.error = None


def _emit(state, doc_fn, *obj):
    doc = doc_fn(*obj)
    state["docs"].append((doc, sp.docs.render(doc), obj[0]))


def check_docs(state):
    fails = []
    for doc, text, obj in state["docs"]:
        back = json.loads(text)
        if back != doc:
            fails.append(f"docs: {doc.get('kind')} does not parse back to an equal document")
        elif doc["kind"] == "star_product" and sp.docs.star_product_from_doc(back) != obj:
            fails.append("docs: star_product document does not parse back to the product")
    return fails


# -- inputs -------------------------------------------------------------------


def fmt_poly(d):
    """Input text for parse_poly, written without starplane's printer."""
    return " + ".join(f"{c.numerator}/{c.denominator}*x^{i}*y^{j}" for (i, j), c in sorted(d.items()))


def random_poly(rng, support):
    return {e: O.rng_rational(rng) for e in support}


def parsed(d):
    return sp.parse_poly(fmt_poly(d))


def check_parsed(pairs):
    return [f"parse: {fmt_poly(d)!r} parsed to other terms" for d, p in pairs if O.poly_of(p) != d]


# -- build: cold quantize over a grid, one Berezin pipeline, one Lie-word fit ---

BUILD_GRID = [  # (monomial support of phi, order N)
    (((1, 1),), 6),
    (((2, 1),), 5),
    (((2, 1), (1, 2)), 5),
    (((1, 1), (3, 2)), 5),
    (((1, 1), (2, 1), (1, 3)), 5),
]
BEREZIN = (((2, 1), (1, 2)), 3)
LIE_SAMPLES, LIE_K = ((1, 1), (2, 1), (1, 2), (3, 2)), 2


def build_setup(rng):
    groups = []
    for support, N in BUILD_GRID:
        d = random_poly(rng, support)
        phi = parsed(d)

        def q_step(st, phi=phi, N=N):
            st["m"] = sp.quantize(phi, N)
            _emit(st, sp.docs.star_product_doc, st["m"])

        def q_check(st, crng, d=d, phi=phi, N=N):
            _, orders = O.product_of(st["m"])
            return check_parsed([(d, phi)]) + O.certify_quantization(d, orders, N, crng)

        groups.append(Group(f"quantize N={N} {fmt_poly(d)}", [("quantize", q_step)], q_check))

    support, N = BEREZIN
    d = random_poly(rng, support)
    phi = parsed(d)

    def b_step(st):
        st["b"] = sp.berezin_pipeline(phi, N)
        _emit(st, sp.docs.berezin_doc, st["b"])

    def b_check(st, crng):
        data = st["b"]
        series = lambda s: [(O.poly_of(c.num), c.power) for c in s.coeffs]  # noqa: E731
        return check_parsed([(d, phi)]) + O.check_density(d, series(data.f), series(data.tau))

    groups.append(Group(f"berezin N={N} {fmt_poly(d)}", [("berezin_pipeline", b_step)], b_check))

    ds = [random_poly(rng, (e,)) for e in LIE_SAMPLES]
    samples = [parsed(x) for x in ds]

    def f_step(st):
        st["r"] = sp.fit_lie_words(samples, LIE_K)
        _emit(st, sp.docs.fit_report_doc, st["r"])

    def f_check(st, crng):
        r = st["r"]
        fails = check_parsed(list(zip(ds, samples)))
        if r.status not in ("ok", "underdetermined"):
            return fails + [f"lie fit: status {r.status}"]
        for x, p in zip(ds, samples):
            # the product the fit was made against (quantize is deterministic)
            _, orders = O.product_of(sp.quantize(p, LIE_K + 1))
            fails += O.certify_quantization(x, orders, LIE_K + 1, crng)
            fails += O.check_lie_fit(x, orders.get(LIE_K + 1, {}), r.lambdas, LIE_K, crng)
        return fails

    groups.append(Group(f"fit_lie_words k={LIE_K}", [("fit_lie_words", f_step)], f_check))
    return groups


# -- classify: quantize_series, then classify_p2 on its result -----------------

SERIES = [  # (monomial support of psi_0, psi_1, ...; order N)
    ((((1, 1),), ((1, 0),)), 4),
    ((((1, 1),), ((0, 1),), ((1, 0),)), 3),
    ((((1, 1),), ((2, 1),)), 3),
    ((((1, 1),), ((1, 0),), ((0, 1),)), 4),
]


def classify_setup(rng):
    groups = []
    for supports, N in SERIES:
        ds = [random_poly(rng, s) for s in supports]
        psi = [parsed(x) for x in ds]

        def s_step(st, psi=psi, N=N):
            st["q"] = sp.quantize_series(psi, N)
            _emit(st, sp.docs.star_product_doc, st["q"])

        def c_step(st):
            st["psi"] = sp.classify_p2(st["q"])
            _emit(st, sp.docs.poisson_series_doc, st["psi"])

        def check(st, crng, ds=ds, psi=psi, N=N):
            fails = check_parsed(list(zip(ds, psi)))
            got = [O.poly_of(c) for c in st["psi"].trimmed()]
            if got != ds:
                fails.append("classify: classify_p2(quantize_series(psi)) is not psi")
            _, orders = O.product_of(st["q"])
            fails += O.check_shape(orders)
            if orders.get(1, {}) != {((1, 0), (0, 1)): ds[0]}:
                fails.append("classify: order 1 of the series product is not psi_0 dx (x) dy")
            return fails + O.check_associative(orders, N, crng)

        groups.append(Group(f"series N={N} " + " | ".join(map(fmt_poly, ds)),
                            [("quantize_series", s_step), ("classify_p2", c_step)], check))
    return groups


# -- normalize: gauge a product, normalize it back, check and use the result ---

GAUGED = [  # (support of phi, order N, {h-order: derivative multi-indices of U_k})
    (((1, 1),), 4, {1: ((1, 1), (2, 0)), 2: ((0, 2),)}),
    (((2, 1), (1, 2)), 4, {1: ((1, 1), (2, 0)), 2: ((0, 2),)}),
    (((1, 1), (2, 2)), 4, {1: ((2, 0), (0, 2)), 2: ((1, 1),)}),
]
MOYAL_ORDERS = (4, 5)


def normalize_setup(rng):
    groups = []
    for support, N, pattern in GAUGED:
        d = random_poly(rng, support)
        phi = parsed(d)
        m = sp.quantize(phi, N)
        u = {k: {idx: {(0, 0): O.rng_rational(rng)} for idx in idxs} for k, idxs in pattern.items()}
        U = sp.GaugeOp(N, {k: sp.DiffOp({idx: sp.Poly2(c) for idx, c in op.items()})
                           for k, op in u.items()})
        _, m_orders = O.product_of(m)
        fd, gd = (O.sample_poly(rng, N, N) for _ in range(2))
        f, g = sp.Poly2(fd), sp.Poly2(gd)

        def gauge_step(st, m=m, U=U):
            st["m2"] = sp.gauge_transform(m, U)
            _emit(st, sp.docs.star_product_doc, st["m2"])

        def norm_step(st):
            st["W"], st["out"] = sp.normalize(st["m2"])
            _emit(st, sp.docs.gauge_op_doc, st["W"])
            _emit(st, sp.docs.star_product_doc, st["out"])

        def assoc_step(st):
            st["defect"] = sp.assoc_defect(st["out"])
            _emit(st, sp.docs.defect_report_doc, st["defect"], st["out"].n_order)

        def mul_step(st, f=f, g=g):
            st["fg"] = sp.star_mul(st["out"], f, g)
            _emit(st, sp.docs.h_series_doc, st["fg"])

        def check(st, crng, d=d, phi=phi, N=N, u=u, m_orders=m_orders, fd=fd, gd=gd):
            fails = check_parsed([(d, phi)])
            n, out = O.product_of(st["out"])
            if n != N or out != m_orders:
                fails.append("normalize: normalize(gauge_transform(m, U)) is not m")
            _, W = O.gauge_of(st["W"])
            fails += O.check_gauge_inverse(W, u, N, crng)
            if any(op.terms for op in st["defect"].values()):
                fails.append("normalize: assoc_defect of the normalized product is nonzero")
            fails += O.check_associative(out, N, crng)
            want = O.star_series(out, N, O.constant_series(fd, N), O.constant_series(gd, N))
            if [O.poly_of(c) for c in st["fg"].coeffs] != want:
                fails.append("normalize: star_mul differs from the oracle's product")
            return fails

        steps = [("gauge_transform", gauge_step), ("normalize", norm_step),
                 ("assoc_defect", assoc_step), ("star_mul", mul_step)]
        groups.append(Group(f"gauged N={N} {fmt_poly(d)}", steps, check))

    for N in MOYAL_ORDERS:
        c = O.rng_rational(rng, num=30, den=7)
        moyal = sp.moyal_fixture(c, N)

        def moyal_step(st, moyal=moyal):
            st["W"], st["out"] = sp.normalize(moyal)
            _emit(st, sp.docs.gauge_op_doc, st["W"])
            _emit(st, sp.docs.star_product_doc, st["out"])

        def moyal_check(st, crng, c=c, N=N):
            want_m, want_u1 = O.moyal_normal_form(c, N)
            fails = []
            if O.product_of(st["out"]) != (N, want_m):
                fails.append("moyal: normalized product is not c^k/k! dx^k (x) dy^k")
            if O.gauge_of(st["W"])[1].get(1) != want_u1:
                fails.append("moyal: U_1 is not -(c/2) dx dy")
            return fails

        groups.append(Group(f"moyal N={N} c={c}", [("normalize", moyal_step)], moyal_check))
    return groups


WORKLOADS = {
    "build": build_setup,
    "classify": classify_setup,
    "normalize": normalize_setup,
}


def run_checks(group, crng):
    """Failure strings for one group whose steps all ran."""
    try:
        return group.check(group.state, crng) + check_docs(group.state)
    except Exception as exc:  # a check that cannot run is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)

