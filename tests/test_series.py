"""Truncated h-series and the phi-localized coefficient ring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starplane.localized import LocalizedFn
from starplane.poly import ONE, X, Y, Poly2
from starplane.series import HSeries

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def poly_series(order):
    polys = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, max_size=3
    ).map(Poly2)
    return st.lists(polys, min_size=order + 1, max_size=order + 1).map(
        lambda cs: HSeries(order, cs)
    )


def test_constant():
    s = HSeries.constant(X, 2)
    assert s.coeffs == [X, Poly2.zero(), Poly2.zero()]


def test_mul_truncates():
    s = HSeries(2, [ONE, X, Y])
    t = HSeries(2, [ONE, Y, Poly2.zero()])
    prod = s * t
    assert prod.order == 2
    assert prod.coeffs == [ONE, X + Y, X * Y + Y]


@given(poly_series(3), poly_series(3), poly_series(3))
@settings(max_examples=60, deadline=None)
def test_series_ring(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a


def test_localized_reduction():
    phi = X * Y
    v = LocalizedFn(X * Y * Y, 1, phi).reduced()  # (xy*y)/phi reduces to y
    assert v.power == 0 and v.num == Y
    assert LocalizedFn(Poly2.zero(), 3, phi).reduced().power == 0


def test_localized_arithmetic():
    phi = X * Y
    a = LocalizedFn.one_over_phi(phi)
    b = LocalizedFn(Y, 1, phi)  # y/(xy) (kept unreduced: xy does not divide y)
    assert a + a == LocalizedFn(Poly2.const(2), 1, phi)
    assert a * phi == LocalizedFn(1, 0, phi)
    assert (a - a).is_zero()
    assert b * X == LocalizedFn(1, 0, phi)


def test_localized_sum_and_equality_lift_only_the_lower_power(monkeypatch):
    phi = X * Y
    a, b, c = LocalizedFn(X, 2, phi), LocalizedFn(Y, 2, phi), LocalizedFn(ONE, 1, phi)
    products = []
    mul = Poly2.__mul__
    monkeypatch.setattr(Poly2, "__mul__", lambda p, q: products.append(q) or mul(p, q))
    total = a + b
    same = a == LocalizedFn(X, 2, phi)
    equal_powers = list(products)
    # unequal powers: c is lifted to phi^2 by one product with phi, a is kept as it is
    mixed = a + c
    monkeypatch.undo()
    assert equal_powers == [] and products == [phi]
    assert same and total.num == X + Y and total.power == 2
    assert mixed.num == X + phi and mixed.power == 2
    assert c == LocalizedFn(phi, 2, phi) and a != c


def test_localized_quotient_rule():
    phi = X * Y
    f = LocalizedFn.one_over_phi(phi)  # 1/(xy)
    # d/dy 1/(xy) = -1/(x y^2) = -x/(xy)^2
    assert f.dy() == LocalizedFn(-X, 2, phi)


def test_mixed_phi_rejected():
    a = LocalizedFn.one_over_phi(X)
    b = LocalizedFn.one_over_phi(Y)
    with pytest.raises(ValueError):
        a + b
