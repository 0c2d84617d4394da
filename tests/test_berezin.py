"""The ad_x -> S -> density pipeline with phi-localized coefficients."""

from fractions import Fraction

import pytest

from starplane.berezin import (
    YOpSeries,
    ad_x,
    berezin_pipeline,
    extract_S,
)
from starplane.errors import IntegrationObstruction, NotNormalized
from starplane.localized import LocalizedFn
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
    assert set(W.terms) == {1}
    assert W.terms[1] == series(ONE, 2, {0: ONE})

    # phi = xy at N=2: xy * (dy + h(1/2 dy + (y/2) dy^2))
    phi = X * Y
    W = ad_x(quantize(phi, 2), phi)
    assert W.terms[1] == series(phi, 1, {0: phi, 1: phi * Fraction(1, 2)})
    assert W.terms[2] == series(phi, 1, {1: phi * Y * Fraction(1, 2)})

    # phi = x at N=2: x * (dy + h/2 dy^2)
    W = ad_x(quantize(X, 2), X)
    assert W.terms[1] == series(X, 1, {0: X})
    assert W.terms[2] == series(X, 1, {1: X * Fraction(1, 2)})


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
            for b, w in W.terms.items():
                for k in range(3):
                    applied[k] = applied[k] + as_poly(w.coeffs[k]) * g.dy(b)
            assert applied == comm.coeffs[1:]


def test_extract_S_closed_forms():
    # flat: S = 0
    S = extract_S(ad_x(quantize(ONE, 3), ONE), ONE)
    assert S.is_zero()

    # phi = xy at N=1: s_0 = (h/2) y
    phi = X * Y
    S = extract_S(ad_x(quantize(phi, 2), phi), phi)
    assert S.terms[0] == series(phi, 1, {1: Y * Fraction(1, 2)})
    assert set(S.terms) == {0}

    # phi = x at N=1: the only finite solution is the constant s_0 = h/2
    S = extract_S(ad_x(quantize(X, 2), X), X)
    assert S.terms[0] == series(X, 1, {1: Poly2.const(Fraction(1, 2))})
    assert set(S.terms) == {0}


def test_extract_S_defining_identity():
    # phi dy (1 + S dy) must reproduce W slot by slot
    for phi in (X, X * Y):
        m = quantize(phi, 4)
        W = ad_x(m, phi)
        S = extract_S(W, phi)
        N = W.n_order
        zero = HSeries.constant(LocalizedFn(0, 0, phi), N)
        lhs = {1: HSeries.constant(LocalizedFn(phi, 0, phi), N)}
        for j, sj in S.terms.items():
            lhs[j + 1] = lhs.get(j + 1, zero) + sj.dy() * LocalizedFn(phi, 0, phi)
            lhs[j + 2] = lhs.get(j + 2, zero) + sj * LocalizedFn(phi, 0, phi)
        for b in set(lhs) | set(W.terms):
            assert lhs.get(b, zero) == W.coeff(b), (phi, b)


def test_extract_S_inconsistent_input():
    phi = ONE
    # W = (1 + h) dy has no finite S: the dy^1 slot cannot be matched
    W = YOpSeries(2, {1: series(phi, 2, {0: 1, 1: 1})}, phi)
    with pytest.raises(IntegrationObstruction):
        extract_S(W, phi)


def test_density_flat():
    data = berezin_pipeline(ONE, 3)
    assert data.S.is_zero()
    assert data.f == HSeries.constant(LocalizedFn(1, 0, ONE), 3)
    assert data.tau.is_zero()


@pytest.mark.parametrize("phi", [X, X * Y])
def test_density_identity_and_exactness(phi):
    data = berezin_pipeline(phi, 3)
    one = HSeries.constant(LocalizedFn(1, 0, phi), 3)
    lhs = (data.f + data.S.apply(data.f).dy()) * LocalizedFn(phi, 0, phi)
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
