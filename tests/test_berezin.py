"""The ad_x -> S -> density pipeline with phi-localized coefficients."""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starplane.berezin import (
    ad_x,
    apply_S,
    berezin_pipeline,
    extract_S,
)
from starplane.docs import berezin_doc
from starplane.errors import IntegrationObstruction, NotDivisible, NotNormalized, UsageError
from starplane.localized import LocalizedFn
from starplane.parser import parse_poly
from starplane.poly import ONE, X, Y, Poly2
from starplane.quantize import quantize
from starplane.series import HSeries
from starplane.star import moyal_fixture, star_mul


def series(phi, order, entries):
    cs = [LocalizedFn(0, 0, phi)] * (order + 1)
    for i, val in entries.items():
        cs[i] = LocalizedFn(val, 0, phi)
    return HSeries(order, cs)


def as_poly(v: LocalizedFn) -> Poly2:
    """The polynomial a LocalizedFn with no phi in its denominator stands for."""
    assert v.power == 0, "denominator present; not a polynomial"
    return v.num


def test_ad_x_requires_normalized_input():
    with pytest.raises(NotNormalized):
        ad_x(moyal_fixture(1, 2), ONE)
    with pytest.raises(NotNormalized):
        ad_x(quantize(X, 2), X * Y)


def test_ad_x_closed_forms():
    # flat case: exactly dy at every order
    W = ad_x(quantize(ONE, 3), ONE)
    assert set(W) == {1}
    assert W[1] == series(ONE, 2, {0: ONE})

    # phi = xy at N=2: xy * (dy + h(1/2 dy + (y/2) dy^2))
    phi = X * Y
    W = ad_x(quantize(phi, 2), phi)
    assert W[1] == series(phi, 1, {0: phi, 1: phi * Fraction(1, 2)})
    assert W[2] == series(phi, 1, {1: phi * Y * Fraction(1, 2)})

    # phi = x at N=2: x * (dy + h/2 dy^2)
    W = ad_x(quantize(X, 2), X)
    assert W[1] == series(X, 1, {0: X})
    assert W[2] == series(X, 1, {1: X * Fraction(1, 2)})


def test_ad_x_matches_star_commutator_on_monomials():
    # independent oracle: (1/h)(x * g - g * x) evaluated by star_mul
    phi = X ** 2
    m = quantize(phi, 3)
    W = ad_x(m, phi)
    for i in range(4):
        for j in range(4 - i):
            g = Poly2.monomial(i, j)
            comm = star_mul(m, X, g) - star_mul(m, g, X)
            assert comm.coeffs[0].is_zero()
            applied = [Poly2.zero()] * 3
            for b, w in W.items():
                for k in range(3):
                    applied[k] = applied[k] + as_poly(w.coeffs[k]) * g.dy(b)
            assert applied == comm.coeffs[1:]


def test_extract_S_closed_forms():
    # flat: S = 0
    S = extract_S(ad_x(quantize(ONE, 3), ONE), ONE)
    assert not S

    # phi = xy at N=1: s_0 = (h/2) y
    phi = X * Y
    S = extract_S(ad_x(quantize(phi, 2), phi), phi)
    assert S[0] == series(phi, 1, {1: Y * Fraction(1, 2)})
    assert set(S) == {0}

    # phi = x at N=1: the only finite solution is the constant s_0 = h/2
    S = extract_S(ad_x(quantize(X, 2), X), X)
    assert S[0] == series(X, 1, {1: Poly2.const(Fraction(1, 2))})
    assert set(S) == {0}


def test_extract_S_defining_identity():
    # phi dy (1 + S dy) must reproduce W slot by slot
    for phi in (X, X * Y):
        m = quantize(phi, 4)
        W = ad_x(m, phi)
        S = extract_S(W, phi)
        N = W[1].order
        zero = HSeries.constant(LocalizedFn(0, 0, phi), N)
        lhs = {1: HSeries.constant(LocalizedFn(phi, 0, phi), N)}
        for j, sj in S.items():
            lhs[j + 1] = lhs.get(j + 1, zero) + sj.dy() * LocalizedFn(phi, 0, phi)
            lhs[j + 2] = lhs.get(j + 2, zero) + sj * LocalizedFn(phi, 0, phi)
        for b in set(lhs) | set(W):
            assert lhs.get(b, zero) == W.get(b, zero), (phi, b)


def test_extract_S_inconsistent_input():
    phi = ONE
    # W = (1 + h) dy has no finite S: the dy^1 slot cannot be matched
    W = {1: series(phi, 2, {0: 1, 1: 1})}
    with pytest.raises(IntegrationObstruction):
        extract_S(W, phi)


def test_extract_S_needs_the_dy_slot_even_when_W_has_none():
    # phi dy (1 + S dy) always holds phi dy at h^0, so W = h dy^2 has no S,
    # although s_0 = h matches its dy^2 slot
    phi = ONE
    with pytest.raises(IntegrationObstruction):
        extract_S({2: series(phi, 1, {1: 1})}, phi)


def test_density_f_applies_S_to_the_whole_series_once(monkeypatch):
    # f is formed order by order; only tau = -S f applies S to all of f
    module = importlib.import_module("starplane.berezin")
    phi = parse_poly("x^2*y+x*y^2")
    N = 4
    S = extract_S(ad_x(quantize(phi, N + 1), phi), phi)
    assert S
    calls = []
    apply_S_ = module.apply_S
    monkeypatch.setattr(module, "apply_S", lambda S, f: calls.append(f.order) or apply_S_(S, f))
    data = module.density_f(phi, S, N)
    monkeypatch.undo()
    assert calls == [N]
    assert data.tau == -apply_S(S, data.f)


def test_density_flat():
    data = berezin_pipeline(ONE, 3)
    assert not data.S
    assert data.f == HSeries.constant(LocalizedFn(1, 0, ONE), 3)
    assert data.tau.is_zero()


@pytest.mark.parametrize("phi", [X, X * Y])
def test_density_identity_and_exactness(phi):
    data = berezin_pipeline(phi, 3)
    one = HSeries.constant(LocalizedFn(1, 0, phi), 3)
    lhs = (data.f + apply_S(data.S, data.f).dy()) * LocalizedFn(phi, 0, phi)
    assert lhs == one
    inv = HSeries.constant(LocalizedFn.one_over_phi(phi), 3)
    assert data.f - inv == data.tau.dy()
    assert data.f.coeffs[0] == LocalizedFn.one_over_phi(phi)


def test_density_xy_values():
    data = berezin_pipeline(X * Y, 1)
    # f = 1/(xy) + 0*h; tau = -(h/2)/x + O(h^2)
    assert data.f.coeffs[0] == LocalizedFn.one_over_phi(X * Y)
    assert not data.f.coeffs[1]
    assert data.tau.coeffs[1] == LocalizedFn(-Y * Fraction(1, 2), 1, X * Y)


def test_density_uses_localized_ring():
    data = berezin_pipeline(X * Y, 2)
    assert data.f.coeffs[0].power == 1


def test_berezin_pipeline_rejects_a_phi_that_is_not_a_poly2():
    with pytest.raises(UsageError, match="phi must be a Poly2, got 'x'"):
        berezin_pipeline("x", 2)


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 3)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
phis = st.dictionaries(exponents, coefficients, min_size=1, max_size=3).map(Poly2)


@given(phis, st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_held_forms_solve_the_density_and_print_in_lowest_terms(phi, N):
    # the forms are held unreduced; == cross-multiplies and the document reduces
    data = berezin_pipeline(phi, N)
    one = HSeries.constant(LocalizedFn(1, 0, phi), N)
    assert (data.f + apply_S(data.S, data.f).dy()) * LocalizedFn(phi, 0, phi) == one
    assert data.f - HSeries.constant(LocalizedFn.one_over_phi(phi), N) == data.tau.dy()
    doc = berezin_doc(data)
    held = [w for _, w in sorted(data.S.items())] + [data.f, data.tau]
    printed = [e["series"] for e in doc["S"]] + [doc["f"], doc["tau"]]
    for series_, entries in zip(held, printed, strict=True):
        assert [e["i"] for e in entries] == [i for i, c in enumerate(series_.coeffs) if c]
        for e in entries:
            num = parse_poly(e["num"])
            if e["phi_pow"] > 0:
                with pytest.raises(NotDivisible):
                    num.exact_div(phi)
            assert LocalizedFn(num, e["phi_pow"], phi) == series_.coeffs[e["i"]]
