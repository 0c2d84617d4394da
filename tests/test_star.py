"""Star products as values: multiplication, gauge action, normalization."""

import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import certify_oracle
from compose_oracle import op_sum
from gauge_oracle import oracle_apply_series, oracle_gauge_transform, oracle_inverse, oracle_normalize
from starplane import poly
from starplane.diffop import BiDiffOp, DiffOp
from starplane.errors import CapExceeded, Inconsistent, UsageError
from starplane.parser import parse_poly
from starplane.poly import ONE, X, Y, Poly2
from starplane.quantize import quantize
from starplane.series import HSeries
from starplane.star import (
    GaugeOp,
    StarProduct,
    assoc_defect,
    extract_poisson_p3,
    gauge_transform,
    is_associative,
    moyal_fixture,
    normalize,
    spq_membership,
    star_mul,
)


def shift(s: HSeries, k: int) -> HSeries:
    """s times h^k, keeping the truncation order."""
    return HSeries(s.order, [s.coeffs[0] * 0] * k + s.coeffs[:s.order + 1 - k])


def truncate(s: HSeries, order: int) -> HSeries:
    """s cut or zero-padded to the given truncation order."""
    zero = s.coeffs[0] * 0
    return HSeries(order, (s.coeffs + [zero] * order)[:order + 1])


def star_mul_series(m: StarProduct, F: HSeries, G: HSeries) -> HSeries:
    """sum h^(p+q+k) m_k(F_p, G_q), the product extended to h-series."""
    n = min(m.n_order, F.order, G.order)
    out = [Poly2.zero() for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(n + 1 - p):
            for k in range(n + 1 - p - q):
                out[p + q + k] = out[p + q + k] + m.order_op(k).apply(F[p], G[q])
    return HSeries(n, out)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
    max_size=3,
).map(Poly2)

def test_star_mul_first_orders():
    m = quantize(X * Y, 2)
    s = star_mul(m, X, Y)
    assert s.coeffs[0] == X * Y
    assert s.coeffs[1] == X * Y  # phi * dx(x) dy(y)
    # order 2 sees the K_2 table on (x, y): only the (1,1) slot acts
    assert s.coeffs[2] == X * Y * Fraction(1, 2)

def test_star_mul_series_is_bilinear_over_truncation():
    m = quantize(X, 2)
    F = HSeries(2, [X, Y, ONE])
    G = HSeries(2, [Y, Poly2.zero(), X])
    direct = star_mul_series(m, F, G)
    acc = HSeries.constant(Poly2.zero(), 2)
    for i, f in enumerate(F.coeffs):
        for j, g in enumerate(G.coeffs):
            if i + j <= 2:
                acc = acc + shift(truncate(star_mul(m, f, g), 2), i + j)
    assert direct == acc

def test_moyal_fixture_is_associative_but_not_normalized():
    m = moyal_fixture(1, 4)
    assert is_associative(m)
    assert not spq_membership(m)
    # Weyl-symmetric first order: (fg_xy - f_x g_y ... ) check on x, y
    assert star_mul(m, X, Y).coeffs[1] == Poly2.const(Fraction(1, 2))
    assert star_mul(m, Y, X).coeffs[1] == Poly2.const(Fraction(-1, 2))

def test_assoc_defect_flags_broken_products():
    bad = StarProduct(2, {1: BiDiffOp({((1, 0), (0, 1)): X})})
    d = assoc_defect(bad)
    assert any(not op.is_zero() for op in d.values())
    assert not is_associative(bad)

@pytest.mark.parametrize("N", [1, 2])
def test_assoc_defect_starts_at_order_1(N):
    # m_1(f, g) = f dy g is no Hochschild cocycle: b(m_1)(f, g, h) = f g dy h,
    # and the order-1 associator is -b(m_1)
    m1 = BiDiffOp({((0, 0), (0, 1)): 1})
    bad = StarProduct(N, {1: m1})
    d = assoc_defect(bad)
    assert sorted(d) == list(range(1, N + 1))
    assert d[1] == op_sum([(-1, certify_oracle.hochschild_b(m1))]) and d[1]
    assert d[1].apply(X, Y, X * Y) == -(X * Y * X)
    assert not is_associative(bad)
    # a cocycle m_1 leaves order 1 zero
    assert not assoc_defect(StarProduct(N, {1: BiDiffOp({((1, 0), (0, 1)): X})}))[1]


def test_pointwise_product_is_associative():
    assert is_associative(StarProduct(3, {}))

def test_gauge_transform_preserves_associativity():
    m = moyal_fixture(1, 3)
    U = GaugeOp(3, {1: DiffOp({(1, 1): Poly2.const(Fraction(-1, 2))})})
    out = gauge_transform(m, U)
    assert is_associative(out)

def test_gauge_by_half_dxdy_normal_orders_moyal():
    # the Wick/Weyl transmutation: U = 1 - (h/2) dxdy turns the symmetric
    # product into the normal-ordered one with m_k = (1/k!) dx^k (x) dy^k
    m = moyal_fixture(1, 4)
    # U = exp(-(h/2) dxdy): U_k = (1/k!) (-1/2)^k dx^k dy^k
    orders = {
        k: DiffOp({(k, k): Poly2.const(Fraction(-1, 2) ** k / factorial(k))})
        for k in range(1, 5)
    }
    U = GaugeOp(4, orders)
    out = gauge_transform(m, U)
    for k in range(1, 5):
        assert out.order_op(k).terms == {((k, 0), (0, k)): Poly2.const(Fraction(1, factorial(k)))}

def test_gauge_inverse_composes_to_identity():
    U = GaugeOp(3, {1: DiffOp({(1, 1): X}), 2: DiffOp({(2, 0): Y})})
    V = oracle_inverse(U)
    m = quantize(X * Y, 3)
    assert gauge_transform(gauge_transform(m, U), V) == m

@given(small_polys, small_polys)
@settings(max_examples=25, deadline=None)
def test_gauge_transform_matches_pointwise_conjugation(f, g):
    m = quantize(X, 2)
    U = GaugeOp(2, {1: DiffOp({(1, 1): Y}), 2: DiffOp({(2, 1): X})})
    out = gauge_transform(m, U)
    V = oracle_inverse(U)
    # m'(f,g) = U^{-1} m(Uf, Ug) evaluated as h-series (independent oracle)
    Uf = truncate(oracle_apply_series(U, f), 2)
    Ug = truncate(oracle_apply_series(U, g), 2)
    conj = star_mul_series(m, Uf, Ug)
    expected = conj
    for k, op in V.orders.items():
        expected = expected + shift(HSeries(2, [op.apply(c) for c in conj.coeffs]), k)
    assert star_mul(out, f, g) == expected

def test_normalize_moyal():
    U, out = normalize(moyal_fixture(1, 4))
    assert U.order_op(1).terms == {(1, 1): Poly2.const(Fraction(-1, 2))}
    assert spq_membership(out)
    for k in range(1, 5):
        assert out.order_op(k).terms == {((k, 0), (0, k)): Poly2.const(Fraction(1, factorial(k)))}

def test_normalize_is_identity_on_pure_shape():
    m = quantize(X ** 2, 3)
    U, out = normalize(m)
    assert out == m
    assert all(not U.order_op(k) for k in range(1, 4))

def test_normalize_enforces_polar_conditions():
    U, _ = normalize(moyal_fixture(1, 3))
    for k in range(1, 4):
        op = U.order_op(k)
        assert op.apply(ONE).is_zero()
        assert op.apply(X).is_zero()
        assert op.apply(Y).is_zero()

def test_extract_poisson_p3():
    m = quantize(X * Y, 3)
    p = extract_poisson_p3(m)
    assert p.coeffs[0] == X * Y
    q = extract_poisson_p3(moyal_fixture(1, 2))
    assert q.coeffs[0] == ONE

def test_spq_membership():
    assert spq_membership(quantize(X, 2))
    assert not spq_membership(moyal_fixture(1, 2))

# -- the gauge recursion against the inverse-based route ----------------------

coeffs = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=2,
).map(Poly2)
indices = st.tuples(st.integers(0, 2), st.integers(0, 2))
PHIS = [parse_poly(t) for t in ("1", "x", "x*y", "x^2*y")]


@st.composite
def gauges(draw, N, polar, unit=False):
    """U of order N; polar ones use derivatives of order >= 2 only, and also
    order 0 if unit."""
    nus = indices.filter(lambda nu: sum(nu) >= 2 or unit and nu == (0, 0)) if polar else indices
    return GaugeOp(N, {k: DiffOp(draw(st.dictionaries(nus, coeffs, max_size=2)))
                       for k in range(1, N + 1)})


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except (Inconsistent, CapExceeded) as exc:
        return type(exc)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_gauge_transform_matches_inverse_route(data):
    N = data.draw(st.integers(1, 3))
    m = quantize(data.draw(st.sampled_from(PHIS)), N)
    U = data.draw(gauges(N, polar=False))
    assert gauge_transform(m, U) == oracle_gauge_transform(m, U)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_normalize_matches_inverse_route(data):
    # a gauged product, sometimes with one stray term, under an optional cap:
    # both routes return the same (U, m') or raise the same error class
    N = data.draw(st.integers(1, 3))
    m = oracle_gauge_transform(quantize(data.draw(st.sampled_from(PHIS)), N),
                               data.draw(gauges(N, polar=True)))
    if data.draw(st.booleans()):
        k = data.draw(st.integers(1, N))
        slot = st.tuples(st.integers(0, 1), st.integers(0, 1))
        stray = BiDiffOp({(data.draw(slot), data.draw(slot)): data.draw(coeffs)})
        m = StarProduct(N, {**m.orders, k: op_sum([(1, m.order_op(k)), (1, stray)])})
    cap = data.draw(st.sampled_from([None, 1, 2, 3, 4]))
    got = _outcome(normalize, m, max_op_order=cap)
    event(got.__name__ if isinstance(got, type) else "normalized")
    assert got == _outcome(oracle_normalize, m, max_op_order=cap)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_gauge_with_zero_middle_orders_matches_inverse_route(data):
    # U_1 and U_N set, some orders between them zero: the recursion skips the
    # compositions with those orders and must still agree with the inverse route
    N = data.draw(st.integers(3, 4))
    U = data.draw(gauges(N, polar=True))
    zero = data.draw(st.sets(st.integers(2, N - 1), min_size=1))
    U = GaugeOp(N, {k: op for k, op in U.orders.items() if k not in zero})
    m = quantize(data.draw(st.sampled_from(PHIS)), N)
    m2 = gauge_transform(m, U)
    assert m2 == oracle_gauge_transform(m, U)
    # U is polar, so normalizing undoes it: back to m, by the gauge U^{-1}
    W, out = normalize(m2)
    assert out == m and W == oracle_inverse(U)


_GAUGED = GaugeOp(3, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_normalize_with_an_order_0_gauge_part_matches_inverse_route(data):
    # U_k in span{1, d^nu : |nu| >= 2}: each order-0 part lands on the slot
    # ((0, 0), (0, 0)) of the gauged product, and both routes read it off there
    N = data.draw(st.integers(1, 3))
    m = quantize(data.draw(st.sampled_from(PHIS)), N)
    gauged = gauge_transform(m, data.draw(gauges(N, polar=True, unit=True)))
    got = _outcome(normalize, gauged)
    event(got.__name__ if isinstance(got, type) else "normalized")
    assert got == _outcome(oracle_normalize, gauged)
    if not isinstance(got, type):
        W, out = got
        assert spq_membership(out) and is_associative(out) and out == gauge_transform(gauged, W)


@pytest.mark.parametrize("U", [
    GaugeOp(3, {1: DiffOp({(0, 0): X})}),
    GaugeOp(3, {1: DiffOp({(0, 0): 3})}),
    GaugeOp(3, {1: DiffOp({(0, 0): Y}), 2: DiffOp({(0, 0): X * Y - 1}), 3: DiffOp({(0, 0): 2})}),
    GaugeOp(3, {1: DiffOp({(0, 0): 3, (1, 1): 2}), 2: DiffOp({(0, 0): Fraction(-5, 2), (2, 0): 1})}),
], ids=["x", "constant", "multiplications", "constant-coefficients"])
def test_normalize_undoes_a_gauge_with_an_order_0_part(U):
    # normalize gives back the product and U^{-1}, which stays in the normal
    # class here: U is an order-0 multiplier alone (1 + hx is undone by
    # U_k = (-x)^k), or its coefficients are constants, which commute
    m = quantize(X * Y, 3)
    W, out = normalize(gauge_transform(m, U))
    assert out == m and W == oracle_inverse(U)
    if U.order_op(2).is_zero() and len(U.order_op(1).terms) == 1:
        (u,) = U.order_op(1).terms.values()
        assert W == GaugeOp(3, {k: DiffOp({(0, 0): (-u) ** k}) for k in (1, 2, 3)})


def test_one_underived_argument_means_not_associative():
    # m_1 = 1 (x) dy: b(m_1)(f, g, h) = f g h_y != 0, and no gauge reaches the slot
    m = StarProduct(2, {1: BiDiffOp({((0, 0), (0, 1)): ONE})})
    for route in (normalize, oracle_normalize):
        with pytest.raises(Inconsistent, match="order 1: the product is not associative through order 1"):
            route(m)


@pytest.mark.parametrize("m, cap, error", [
    (StarProduct(2, {1: BiDiffOp({((0, 0), (0, 1)): ONE})}), None, Inconsistent),
    (StarProduct(2, {1: BiDiffOp({((1, 0), (1, 1)): 2, ((1, 1), (1, 0)): 4})}), None, Inconsistent),
    (StarProduct(2, {1: BiDiffOp({((1, 0), (1, 1)): 2})}), None, Inconsistent),
    (moyal_fixture(1, 3), 1, CapExceeded),
    (oracle_gauge_transform(quantize(X * Y, 3), _GAUGED), 2, CapExceeded),
    # nu = (2, 1): R_1 holds two of its three non-admissible splits, in agreement
    (StarProduct(2, {1: BiDiffOp({((1, 0), (1, 1)): 2, ((1, 1), (1, 0)): 2})}), None, Inconsistent),
    # nu = (3, 0) and (0, 3): no admissible split, one of two missing (nu = (2, 0)
    # has a single split, the slot that forces it, so it cannot miss one)
    (StarProduct(2, {1: BiDiffOp({((1, 0), (2, 0)): X})}), None, Inconsistent),
    (StarProduct(2, {2: BiDiffOp({((0, 2), (0, 1)): 3})}), None, Inconsistent),
    # the cap is checked before the residual: both would fail here
    (StarProduct(2, {1: BiDiffOp({((1, 0), (1, 1)): 2})}), 2, CapExceeded),
    (StarProduct(2, {1: BiDiffOp({((1, 0), (2, 0)): X})}), 2, CapExceeded),
], ids=["underived-slot", "conflicting-values", "residual-slot", "moyal-cap", "gauged-cap",
        "residual-mixed-nu", "residual-nu-30", "residual-nu-03", "cap-before-residual",
        "cap-before-residual-nu-30"])
def test_normalize_failures_match_inverse_route(m, cap, error):
    with pytest.raises(error):
        normalize(m, max_op_order=cap)
    with pytest.raises(error):
        oracle_normalize(m, max_op_order=cap)


@pytest.mark.parametrize("slots, missing", [
    ({((1, 0), (1, 1)): 2, ((1, 1), (1, 0)): 2}, ((0, 1), (2, 0))),
    ({((1, 0), (2, 0)): X}, ((2, 0), (1, 0))),
    ({((0, 2), (0, 1)): 3}, ((0, 1), (0, 2))),
])
def test_normalize_names_the_missing_split(slots, missing):
    with pytest.raises(Inconsistent, match=re.escape(f"residual non-admissible term at {missing}")):
        normalize(StarProduct(2, {1: BiDiffOp(slots)}))


@pytest.mark.parametrize("m", [
    # nu = (2, 0) and (0, 2): the forcing slot is the only split
    StarProduct(1, {1: BiDiffOp({((1, 0), (0, 1)): ONE, ((1, 0), (1, 0)): 2 * X,
                                 ((0, 1), (0, 1)): Y})}),
    # nu = (2, 1) with all three non-admissible splits, and nu = (1, 1) with its admissible one
    StarProduct(1, {1: BiDiffOp({((1, 0), (1, 1)): 2, ((1, 1), (1, 0)): 2, ((0, 1), (2, 0)): 1,
                                 ((0, 1), (1, 0)): X, ((1, 0), (0, 1)): Y})}),
    oracle_gauge_transform(quantize(X * Y, 3), _GAUGED),
    moyal_fixture(Fraction(3, 7), 4),
], ids=["nu-20-02", "all-splits", "gauged", "moyal"])
def test_normalize_closed_form_matches_inverse_route_and_builds_no_poly2(m, monkeypatch):
    made, new = [], poly._new
    monkeypatch.setattr(poly, "_new", lambda cls: made.append(cls) or new(cls))
    U, out = normalize(m)
    assert made == []  # U_k and m'_k are read off R_k's integer form
    monkeypatch.undo()
    assert (U, out) == oracle_normalize(m)


def test_star_mul_builds_only_its_result(monkeypatch):
    # apply works on each order's integer form: the Poly2s built are the
    # result's coefficients, on a first call and on a repeat
    U = GaugeOp(4, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})
    _, m = normalize(gauge_transform(quantize(parse_poly("x^2*y+x*y^2"), 4), U))
    f, g = parse_poly("x^3*y + 2*y^2"), parse_poly("x*y^2 - 1/2*x")
    made, new = [], poly._new
    monkeypatch.setattr(poly, "_new", lambda cls: made.append(cls) or new(cls))
    for _ in range(2):
        made.clear()
        got = star_mul(m, f, g)
        assert len(made) == len(got.coeffs) == 5
    monkeypatch.undo()
    assert got == star_mul(quantize(parse_poly("x^2*y+x*y^2"), 4), f, g)


def test_star_product_attributes_are_read_only():
    m = quantize(X * Y, 3)
    for name in ("n_order", "orders", "phi", "ktables"):
        with pytest.raises(AttributeError):
            setattr(m, name, {})
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m.n_order == 3 and sorted(m.orders) == [1, 2, 3] and m.phi == X * Y


def test_cached_product_operators_are_read_only():
    m = quantize(parse_poly("x*y"), 3)
    op = m.orders[2]
    with pytest.raises(AttributeError):
        op.terms.clear()
    with pytest.raises(TypeError):
        op.terms[((1, 0), (0, 1))] = ONE
    for name in ("terms", "other"):
        with pytest.raises(AttributeError):
            setattr(op, name, {})
    with pytest.raises(AttributeError):
        del op.terms
    with pytest.raises(AttributeError):
        m.ktables[2].terms.clear()
    assert is_associative(quantize(parse_poly("x*y"), 3))


def test_star_product_and_gauge_op_never_compare_equal():
    assert StarProduct(2, {}) != GaugeOp(2, {})
    assert not StarProduct(2, {}) == GaugeOp(2, {})
    assert StarProduct(2, {}) == StarProduct(2, {}) and GaugeOp(2, {}) == GaugeOp(2)


@pytest.mark.parametrize("make", [
    lambda: StarProduct(2, {3: BiDiffOp.multiplication()}),   # an order above n_order
    lambda: StarProduct(2, {0: BiDiffOp.multiplication()}),   # order 0 is the implicit unit
    lambda: StarProduct(0, {}),
    lambda: StarProduct(-1, {}),
    lambda: StarProduct(2.0, {}),
    lambda: StarProduct(True, {}),
    lambda: StarProduct(2, {"a": BiDiffOp.multiplication()}),
    lambda: StarProduct(2, {1.0: BiDiffOp.multiplication()}),
    lambda: GaugeOp(1, {5: DiffOp({(1, 1): ONE})}),
    lambda: GaugeOp(0),
], ids=["key-above-n", "key-0", "n-0", "n-negative", "n-float", "n-bool", "key-str", "key-float",
        "gauge-key-above-n", "gauge-n-0"])
def test_order_series_reject_bad_orders(make):
    with pytest.raises(ValueError):
        make()


def test_order_series_accept_every_order_in_range():
    ops = {k: BiDiffOp({((k, 0), (0, k)): ONE}) for k in (1, 2, 3)}
    assert StarProduct(3, ops).orders == ops
    assert StarProduct(1, {}).n_order == 1 and GaugeOp(1).orders == {}


def test_order_op_units_and_zeros():
    m, U = quantize(X * Y, 2), GaugeOp(2, {1: DiffOp({(1, 1): ONE})})
    assert m.order_op(0) == BiDiffOp.multiplication()
    assert m.order_op(0).apply(X, Y) == X * Y
    assert U.order_op(0) == DiffOp.identity()
    assert U.order_op(0).apply(X * Y) == X * Y
    assert StarProduct(2, {}).order_op(1) == BiDiffOp() and U.order_op(2) == DiffOp()


def test_normalize_rejects_a_negative_cap():
    gauged = gauge_transform(quantize(X * Y, 4), GaugeOp(4, {1: DiffOp({(1, 1): 2})}))
    for m in (gauged, quantize(X * Y, 4)):
        with pytest.raises(UsageError):
            normalize(m, max_op_order=-1)
    U, m = normalize(quantize(X * Y, 4), max_op_order=0)
    assert U == GaugeOp(4) and m == quantize(X * Y, 4)
    assert normalize(quantize(X * Y, 4), max_op_order=1) == (U, m)


@pytest.mark.parametrize("cap", [1.5, True, "2"])
def test_normalize_rejects_a_cap_that_is_not_an_int(cap):
    with pytest.raises(UsageError, match=f"max_op_order .*got {re.escape(repr(cap))}"):
        normalize(quantize(X * Y, 2), max_op_order=cap)


def test_gauge_transform_rejects_a_u_that_is_not_a_gauge_op():
    with pytest.raises(UsageError, match="U must be a GaugeOp, got 'U'"):
        gauge_transform(quantize(X * Y, 2), "U")


def test_gauge_transform_rejects_an_m_that_is_not_a_star_product():
    with pytest.raises(UsageError, match="m must be a StarProduct, got 'm'"):
        gauge_transform("m", GaugeOp(2))


def test_normalize_rejects_an_m_that_is_not_a_star_product():
    with pytest.raises(UsageError, match="m must be a StarProduct, got 'm'"):
        normalize("m")


def test_star_mul_rejects_an_m_that_is_not_a_star_product():
    with pytest.raises(UsageError, match="m must be a StarProduct, got 'm'"):
        star_mul("m", X, Y)


@pytest.mark.parametrize("fn", [assoc_defect, is_associative, extract_poisson_p3, spq_membership],
                         ids=lambda fn: fn.__name__)
def test_product_readers_reject_an_m_that_is_not_a_star_product(fn):
    with pytest.raises(UsageError, match="m must be a StarProduct, got 'm'"):
        fn("m")


@pytest.mark.parametrize("f, g, message", [("x", Y, "f must be a Poly2, got 'x'"),
                                             (X, "y", "g must be a Poly2, got 'y'")])
def test_star_mul_rejects_an_argument_that_is_not_a_poly2(f, g, message):
    with pytest.raises(UsageError, match=message):
        star_mul(quantize(X * Y, 2), f, g)


@pytest.mark.parametrize("call, message", [
    (lambda: normalize(StarProduct(2, {1: DiffOp({(1, 0): X})})), "order 1 must be a BiDiffOp, got DiffOp"),
    (lambda: normalize(StarProduct(2, {1: "x"})), "order 1 must be a BiDiffOp, got str"),
    (lambda: gauge_transform(quantize(X, 2), GaugeOp(2, {1: BiDiffOp({((1, 0), (0, 1)): X})})),
     "order 1 must be a DiffOp, got BiDiffOp"),
], ids=["star-diffop", "star-str", "gauge-bidiffop"])
def test_order_series_reject_an_order_of_the_wrong_operator_type(call, message):
    with pytest.raises(UsageError, match=message):
        call()


@pytest.mark.parametrize("c, N, message", [
    (0.1, 1, "c must be an int or a Fraction, got 0.1"),
    ("x", 2, "c must be an int or a Fraction, got 'x'"),
    (True, 2, "c must be an int or a Fraction, got True"),
    (1, 2.5, "order must be an integer >= 1, got 2.5"),
    (1, 0, "order must be an integer >= 1, got 0"),
    (0.1, "2", "order must be an integer >= 1, got '2'"),
], ids=["c-float", "c-str", "c-bool", "n-float", "n-0", "n-checked-first"])
def test_moyal_fixture_rejects_a_c_or_n_of_another_type(c, N, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        moyal_fixture(c, N)


def test_gauge_transform_rejects_a_u_shorter_than_the_product():
    U = GaugeOp(2, {1: DiffOp({(1, 1): 2})})
    with pytest.raises(UsageError, match="U has order 2, below the product's order 3"):
        gauge_transform(quantize(X * Y, 3), U)
    with pytest.raises(ValueError):  # UsageError is a ValueError
        gauge_transform(quantize(X * Y, 3), U)


# U at N = 5 against the row sums L_n = sum_{q+i=n} m_q(U_i ., .) of the recursion:
# zero orders between nonzero ones, polynomial coefficients with an order-0
# part, and orders past the product's, which the action never reads
_ROW_SUM_GAUGES = {
    "zero-middle-orders": GaugeOp(5, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}),
                                      5: DiffOp({(0, 2): -1})}),
    "polynomial-with-order-0": GaugeOp(5, {1: DiffOp({(0, 2): X}),
                                           3: DiffOp({(0, 0): 1, (2, 0): Y})}),
    "longer-than-the-product": GaugeOp(7, {1: DiffOp({(1, 1): 2}), 2: DiffOp({(0, 2): -1}),
                                           6: DiffOp({(2, 0): 1}), 7: DiffOp({(3, 0): X})}),
}


@pytest.mark.parametrize("name", sorted(_ROW_SUM_GAUGES))
def test_gauge_row_sums_match_inverse_route_at_order_5(name):
    U = _ROW_SUM_GAUGES[name]
    m = quantize(parse_poly("x^2*y+x*y^2"), 5)
    gauged = gauge_transform(m, U)
    assert gauged == oracle_gauge_transform(m, U)
    got = normalize(gauged)
    assert got == oracle_normalize(gauged)
    assert got[1] == m


def test_gauge_op_is_read_only():
    U, _ = normalize(moyal_fixture(1, 3))
    for name in ("n_order", "orders"):
        with pytest.raises(AttributeError):
            setattr(U, name, {})
        with pytest.raises(AttributeError):
            delattr(U, name)
    with pytest.raises(TypeError):
        U.orders[1] = DiffOp()
    with pytest.raises(AttributeError):
        U.orders[1].terms.clear()
    assert U.order_op(1).terms == {(1, 1): Poly2.const(Fraction(-1, 2))}


# the six slots the closed form of extract_poisson_p3 reads, and all others
# with derivative orders 0..3 in both arguments
skew_slots = st.sampled_from([((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 0), (0, 1)),
                              ((0, 1), (0, 0)), ((1, 0), (0, 0)), ((0, 0), (1, 0))])
multi_index = st.tuples(st.integers(0, 3), st.integers(0, 3))
any_slots = st.one_of(skew_slots, st.tuples(multi_index, multi_index))
bidiffs = st.dictionaries(any_slots, small_polys, max_size=6).map(BiDiffOp)
products = st.integers(1, 3).flatmap(
    lambda n: st.lists(bidiffs, min_size=n, max_size=n).map(
        lambda ops: StarProduct(n, dict(enumerate(ops, 1)))))


@given(products)
@settings(max_examples=150, deadline=None)
def test_extract_poisson_p3_matches_skew_application(m):
    got = extract_poisson_p3(m)
    want = certify_oracle.extract_poisson_p3(m)
    assert got.n_order == want.n_order and got.coeffs == want.coeffs
