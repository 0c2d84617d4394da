"""Universal Lie-word coefficients for the order-(k+1) operator."""

import re
from fractions import Fraction

import pytest

from starplane.errors import UsageError
from starplane.liewords import fit_lie_words, _separable_terms, _ansatz_ops
from starplane.parser import parse_poly
from starplane.poly import ONE, X, Y

SAMPLES = [parse_poly(s) for s in ["x*y", "x^2*y", "x*y^2", "x^3*y^2"]]


def test_separable_decomposition():
    phi = 2 * X ** 2 * Y + Y ** 3
    terms = _separable_terms(phi)
    assert sum(a * b for a, b in terms) == phi
    for a, b in terms:
        assert all(j == 0 for (_, j) in a.terms)
        assert all(i == 0 for (i, _) in b.terms)


def test_k1_single_word_fit():
    r = fit_lie_words(SAMPLES, 1)
    assert r.status == "ok"
    assert r.lambdas == {((0,), (0,)): Fraction(1, 2)}


def test_k1_ansatz_reproduces_order2_table():
    # frozen oracle: for phi = xy the fitted operator must equal
    # phi * (order-2 kappa table); checked via the ansatz with lambda = 1/2
    phi = X * Y
    ops = _ansatz_ops(phi, 1)
    fitted = ops[((0,), (0,))]
    half = Fraction(1, 2)
    expected = {
        ((1, 0), (0, 1)): phi * phi.dx().dy() * half,
        ((2, 0), (0, 1)): phi * phi.dy() * half,
        ((1, 0), (0, 2)): phi * phi.dx() * half,
        ((2, 0), (0, 2)): phi * phi * half,
    }
    assert {key: v * half for key, v in fitted.terms.items()} == expected


@pytest.mark.parametrize("k", [2, 3])
def test_higher_k_consistent_fit(k):
    r = fit_lie_words(SAMPLES, k)
    assert r.status in ("ok", "underdetermined")
    assert any(r.lambdas.values())


def test_degenerate_sample():
    # k = 1 has a single word pair, so even phi = 1 pins it down ...
    r = fit_lie_words([ONE], 1)
    assert r.status == "ok" and r.lambdas == {((0,), (0,)): Fraction(1, 2)}
    # ... but at k = 2 a constant sample cannot distinguish word orders
    r = fit_lie_words([ONE], 2)
    assert r.status == "underdetermined"
    assert r.kernel_dim > 0


def test_multiterm_sample():
    r = fit_lie_words([X * Y + X ** 2 * Y, X * Y ** 2], 1)
    assert r.status == "ok"
    assert r.lambdas[((0,), (0,))] == Fraction(1, 2)


@pytest.mark.parametrize("k", [0, -1, 2.5, "2", True])
def test_k_must_be_an_int_at_least_one(k):
    with pytest.raises(UsageError, match=rf"^k must be an integer >= 1, got {re.escape(repr(k))}$"):
        fit_lie_words([X * Y], k)


def test_samples_must_not_be_empty():
    for samples in ([], iter(())):
        with pytest.raises(UsageError, match="at least one sample"):
            fit_lie_words(samples, 2)
