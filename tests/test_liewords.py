"""Universal Lie-word coefficients for the order-(k+1) operator."""

import re
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from starplane.diffop import BiDiffOp, DiffOp, substitute, substitute_sum
from starplane.errors import UsageError
from starplane.liewords import fit_lie_words, _separable_terms, _ansatz_ops
from starplane.parser import parse_poly
from starplane.poly import ONE, X, Y

SAMPLES = [parse_poly(s) for s in ["x*y", "x^2*y", "x*y^2", "x^3*y^2"]]
TWO_TERM = [parse_poly(s) for s in ["x*y + x^2*y^2", "x + y^2", "x^2*y + x*y^3"]]


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
    fitted = ops[(0,)]
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


def _pair_ops(phi, k):
    """BiDiffOp per (sigma, tau) word pair, built pair by pair: an x-word
    for sigma and a y-word for tau on every index tuple."""
    terms = _separable_terms(phi)
    words = list(permutations(range(k)))

    def word(letters, w, key):
        op = DiffOp.identity()
        for idx in (0,) + tuple(1 + i for i in w):
            op = substitute(op, 0, DiffOp({key: letters[idx]}))
        return op

    items = {(s, t): [] for s in words for t in words}
    for tup in product(range(len(terms)), repeat=k + 1):
        xis = [terms[i][0] for i in tup]
        etas = [terms[i][1] for i in tup]
        for s in words:
            left = substitute(BiDiffOp.multiplication(), 0, word(xis, s, (1, 0)))
            for t in words:
                items[s, t].append((1, left, 1, word(etas, t, (0, 1))))
    return {pair: substitute_sum(its) for pair, its in items.items()}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("phi", TWO_TERM + [parse_poly("3*x*y - 2/5*x^3*y + y^2")], ids=str)
def test_pair_operator_is_the_word_operator_of_sigma_inverse_tau(phi, k):
    # relabelling the index tuple by sigma turns the (sigma, tau) sum into the
    # (id, rho) sum with rho[i] = sigma^-1(tau[i])
    ops = _ansatz_ops(phi, k)
    assert sorted(ops) == sorted(permutations(range(k)))
    for (s, t), op in _pair_ops(phi, k).items():
        assert op == ops[tuple(s.index(v) for v in t)]


def _nonzero(r):
    return {pair: v for pair, v in r.lambdas.items() if v}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_xy_fit_report(k):
    r = fit_lie_words([X * Y], k)
    n = factorial(k) ** 2
    assert (r.num_unknowns, r.rank, r.kernel_dim) == (n, 1, n - 1)
    assert r.status == ("ok" if k == 1 else "underdetermined")
    ident = tuple(range(k))
    assert len(r.lambdas) == n
    assert _nonzero(r) == {(ident, ident): Fraction(1, factorial(k + 1))}


def test_two_term_fit_reports():
    r = fit_lie_words(TWO_TERM, 1)
    assert (r.status, r.rank, r.num_unknowns, r.kernel_dim) == ("ok", 1, 1, 0)
    assert r.lambdas == {((0,), (0,)): Fraction(1, 2)}
    r = fit_lie_words(TWO_TERM, 2)
    assert (r.status, r.rank, r.num_unknowns, r.kernel_dim) == ("underdetermined", 2, 4, 2)
    assert _nonzero(r) == {((0, 1), (0, 1)): Fraction(1, 12), ((0, 1), (1, 0)): Fraction(1, 12)}
    r = fit_lie_words(TWO_TERM, 3)
    assert (r.status, r.rank, r.num_unknowns, r.kernel_dim) == ("underdetermined", 5, 36, 31)
    ident = (0, 1, 2)
    assert _nonzero(r) == {(ident, ident): Fraction(-1, 24), (ident, (0, 2, 1)): Fraction(1, 24),
                           (ident, (1, 0, 2)): Fraction(1, 24)}
    assert len(r.lambdas) == 36


@pytest.mark.parametrize("samples", [5, None, X * Y, ["x*y"], [X * Y, 2]], ids=repr)
def test_samples_must_be_an_iterable_of_poly2(samples):
    with pytest.raises(UsageError, match=r"^phi_samples must be an iterable of Poly2, got "):
        fit_lie_words(samples, 2)
