"""Three laws of the quantization map, each against an independent reference:
the abelian twist for a separable phi, the reparametrization of h, and the
transposition that swapping x and y makes of every order."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compose_oracle import op_sum
from starplane.parser import parse_poly
from starplane.poly import Poly2
from starplane.quantize import quantize, quantize_series
from twist_oracle import twist_orders

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero = rationals.filter(bool)


def separable(xi, eta):
    """phi = xi(x) eta(y) from two {degree: coefficient} dicts."""
    return Poly2({(i, j): a * b for i, a in xi.items() for j, b in eta.items()})


def plain(m, N):
    """Orders 1..N of m as {slot: {(i, j): Fraction}} dicts."""
    return {k: {key: p.terms for key, p in m.order_op(k).terms.items()} for k in range(1, N + 1)}


# degree <= 3 with at most two monomials: a dense cubic times a dense cubic
# takes about 2 s at N = 6, so the fixed cases below carry the denser factors
univariate = st.dictionaries(st.integers(0, 3), nonzero, max_size=2)


@given(univariate, univariate, st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_separable_phi_is_the_abelian_twist(xi, eta, N):
    # X = xi dx and Y = eta dy commute, so the product is exp(h X (x) Y)
    assert plain(quantize(separable(xi, eta), N), N) == twist_orders(xi, eta, N)


@pytest.mark.parametrize("xi, eta, N", [
    ({1: Fraction(1)}, {1: Fraction(1)}, 12),          # xy
    ({2: Fraction(1)}, {3: Fraction(1)}, 9),           # x^2 y^3
    ({0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}, 5),              # (1 + x) y^2
    ({0: Fraction(2), 3: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}, 5),  # (x^3 + 2)(1 - y)
    ({0: Fraction(1, 2), 1: Fraction(-3), 2: Fraction(2, 3), 3: Fraction(5)},  # dense cubics
     {0: Fraction(2), 1: Fraction(1, 3), 2: Fraction(-1), 3: Fraction(7, 2)}, 4),
])
def test_twist_fixed_cases(xi, eta, N):
    assert plain(quantize(separable(xi, eta), N), N) == twist_orders(xi, eta, N)


def reparametrized(phi, cs, N):
    """Orders 1..N of quantize(phi, N) with h replaced by h (1 + c_1 h + c_2 h^2 + ...):
    order n is sum_k [h^(n-k)] (1 + c_1 h + ...)^k m_k."""
    m = quantize(phi, N)
    s = [Fraction(1)] + [Fraction(c) for c in cs]
    power = [Fraction(1)]  # s^k, truncated at h^N
    parts = {n: [] for n in range(1, N + 1)}
    for k in range(1, N + 1):
        power = [sum(power[i] * s[j - i] for i in range(len(power)) if 0 <= j - i < len(s))
                 for j in range(N - k + 1)]
        for n in range(k, N + 1):
            parts[n].append((power[n - k], m.order_op(k)))
    return {n: op_sum(p) for n, p in parts.items()}


def test_reparametrized_reference_is_the_binomial_sum():
    # with one c, [h^(n-k)] (1 + c h)^k = C(k, n-k) c^(n-k)
    phi, c, N = parse_poly("x^2*y"), Fraction(5, 2), 5
    m = quantize(phi, N)
    for n, op in reparametrized(phi, [c], N).items():
        want = op_sum((comb(k, n - k) * c ** (n - k), m.order_op(k)) for k in range(1, n + 1))
        assert op == want, n


def assert_reparametrized(phi, cs, N):
    m = quantize_series([phi] + [c * phi for c in cs], N)
    want = reparametrized(phi, cs, N)
    for n in range(1, N + 1):
        assert m.order_op(n) == want[n], n


@pytest.mark.parametrize("phi, cs", [
    ("x*y", [2]),
    ("x^2*y + x*y^2", [2]),
    ("x + y^2", [2]),
    ("x*y", [Fraction(-1, 3)]),
    ("x^2*y", [Fraction(5, 2)]),
    ("x^3 + x*y", [Fraction(3, 2), -2]),  # [phi, c1 phi, c2 phi] <-> h (1 + c1 h + c2 h^2)
])
def test_reparametrization_fixed_cases(phi, cs):
    assert_reparametrized(parse_poly(phi), [Fraction(c) for c in cs], 5)


polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), nonzero,
                        max_size=3).map(Poly2)


@given(polys, rationals, st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_scaled_second_coefficient_reparametrizes_h(phi, c, N):
    # quantize_series([phi, c phi]) is quantize(phi) with h -> h + c h^2
    assert_reparametrized(phi, [c], N)


def swapped(p: Poly2) -> Poly2:
    """p with x and y exchanged."""
    return Poly2({(j, i): c for (i, j), c in p.terms.items()})


def transposed(op) -> dict:
    """op's slot (A, B) moved to (B reversed, A reversed), its coefficient swapped."""
    return {(B[::-1], A[::-1]): swapped(c) for (A, B), c in op.terms.items()}


cubics = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), nonzero,
                         max_size=3).map(Poly2)


def assert_transposed(phi, N):
    # kappa_ab on ((a, 0), (0, b)) becomes swapped(kappa_ab) on ((b, 0), (0, a)),
    # with sign +1 at every order
    m, t = quantize(phi, N), quantize(swapped(phi), N)
    for k in range(1, N + 1):
        assert dict(t.order_op(k).terms) == transposed(m.order_op(k)), k
        assert dict(t.ktables[k].terms) == transposed(m.ktables[k]), k


@given(cubics, st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_swapping_x_and_y_transposes_every_order(phi, N):
    assert_transposed(phi, N)


@pytest.mark.parametrize("phi", ["x^2*y + x*y^2", "x^3 + y^2 + x*y", "1 + x + y^2",
                                 "x*y^3 + 2*x^2", "3/2*x^2*y - 1/5*y^3 + x"])
def test_transposition_fixed_cases(phi):
    assert_transposed(parse_poly(phi), 5)
