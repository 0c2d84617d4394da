"""The benchmark's oracle must reject wrong answers, not just accept right ones.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle as O  # noqa: E402
import spans  # noqa: E402
from starplane import fit_lie_words, normalize, quantize  # noqa: E402
from starplane import berezin_pipeline, gauge_transform, moyal_fixture  # noqa: E402
from starplane.parser import parse_poly  # noqa: E402
from starplane.star import GaugeOp  # noqa: E402
from starplane.diffop import DiffOp  # noqa: E402

PHI = {(2, 1): Fraction(2, 3), (1, 2): Fraction(-3)}
N = 4


def _product():
    m = quantize(parse_poly("2/3*x^2*y - 3*x*y^2"), N)
    return O.product_of(m)[1]  # fresh dicts: editing them leaves the engine's cache alone


def _bump(orders, k, ab, delta):
    """Add delta to kappa_ab of K_k, i.e. phi * delta to m_k."""
    key = ((ab[0], 0), (0, ab[1]))
    op = orders.setdefault(k, {})
    op[key] = O.p_add(op.get(key, {}), O.p_mul(PHI, delta))
    if not op[key]:
        del op[key]


def test_accepts_the_engine_product():
    assert O.certify_quantization(PHI, _product(), N, random.Random(1)) == []


def test_rejects_one_perturbed_kappa_entry():
    for k, ab in [(2, (2, 2)), (3, (1, 3)), (4, (3, 2))]:
        orders = _product()
        _bump(orders, k, ab, {(0, 0): Fraction(1, 5)})
        fails = O.certify_quantization(PHI, orders, N, random.Random(2))
        assert fails, (k, ab)
        if k > 2:  # above order 2 no closed form is compared: EL and associativity catch it
            assert any(f.startswith(("Euler-Lagrange", "associativity")) for f in fails)


def test_rejects_dx_dy_added_to_a_table():
    # b(phi dx (x) dy) = 0, so at the top order associativity cannot see it;
    # the Euler-Lagrange functionals must.
    for k in (2, 3, N):
        orders = _product()
        _bump(orders, k, (1, 1), {(0, 0): Fraction(1)})
        fails = O.certify_quantization(PHI, orders, N, random.Random(3))
        assert any(f.startswith("Euler-Lagrange") for f in fails), k
    orders = _product()
    _bump(orders, N, (1, 1), {(0, 0): Fraction(1)})
    assert O.check_associative(orders, N, random.Random(4)) == []


def test_associativity_check_catches_a_broken_order():
    orders = _product()
    _bump(orders, 3, (2, 2), {(1, 0): Fraction(1)})
    assert O.check_associative(orders, N, random.Random(5))


def test_rejects_wrong_order_one_and_shape():
    orders = _product()
    orders[1] = {((1, 0), (0, 1)): {(1, 1): Fraction(1)}}
    assert "order 1 is not phi dx (x) dy" in O.certify_quantization(PHI, orders, N, random.Random(6))
    orders = _product()
    orders[3][((1, 1), (0, 1))] = {(0, 0): Fraction(1)}
    assert O.check_shape(orders)


def test_gauge_inverse_check():
    m = quantize(parse_poly("x*y"), 3)
    U = GaugeOp(3, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})
    W, out = normalize(gauge_transform(m, U))
    u, w = O.gauge_of(U)[1], O.gauge_of(W)[1]
    assert O.check_gauge_inverse(w, u, 3, random.Random(7)) == []
    w[2][(0, 2)] = O.p_add(w[2].get((0, 2), {}), {(0, 0): Fraction(1)})
    assert O.check_gauge_inverse(w, u, 3, random.Random(7))


def test_moyal_closed_form():
    c = Fraction(-3, 2)
    W, out = normalize(moyal_fixture(c, 4))
    want_m, want_u1 = O.moyal_normal_form(c, 4)
    assert O.product_of(out) == (4, want_m)
    assert O.gauge_of(W)[1][1] == want_u1


def test_density_check():
    phi = {(1, 1): Fraction(1)}
    data = berezin_pipeline(parse_poly("x*y"), 3)
    series = lambda s: [(O.poly_of(c.num), c.power) for c in s.coeffs]  # noqa: E731
    f, tau = series(data.f), series(data.tau)
    assert O.check_density(phi, f, tau) == []
    f[2] = (O.p_add(f[2][0], {(0, 0): Fraction(1)}), f[2][1])
    assert O.check_density(phi, f, tau)


def test_lie_fit_check():
    texts = ["x*y", "x^2*y", "x*y^2", "x^3*y^2"]
    r = fit_lie_words([parse_poly(t) for t in texts], 2)
    rng = random.Random(8)
    for t in texts:
        p = parse_poly(t)
        target = O.product_of(quantize(p, 3))[1][3]
        assert O.check_lie_fit(O.poly_of(p), target, r.lambdas, 2, rng) == []
    pair = next(k for k, v in sorted(r.lambdas.items()) if v)
    bad = dict(r.lambdas)
    bad[pair] += 1
    p = parse_poly("x^2*y")
    target = O.product_of(quantize(p, 3))[1][3]
    assert O.check_lie_fit(O.poly_of(p), target, bad, 2, rng)


def test_reported_layers_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer"]]
    assert listed == spans.REPORTED + ["trace.overhead_s"]
