"""Universal Lie-word fit for the order-(k+1) bidifferential operator.

Writing psi = sum_i xi_i(x) eta_i(y) dx ^ dy over monomial separable terms,
the fit looks for universal rational coefficients Lambda_{sigma,tau}, one per
pair of permutation words of length k, such that

    m_{k+1}(f, g) = sum over index tuples (i_1 .. i_{k+1}) of
        Lambda_{sigma,tau} * [L_{X_{i_1}} word_sigma(X_{i_2..}) f]
                           * [L_{Y_{i_1}} word_tau(Y_{i_2..}) g]

holds simultaneously for every sample psi, with m_{k+1} taken from the exact
order-by-order construction.  X_i = xi_i dx, Y_i = eta_i dy, and a word acts
by composing the corresponding first-order operators in the given order.

Only k! of the (k!)^2 pair operators are distinct: renaming the tuple
(i_2 .. i_{k+1}) by sigma turns the (sigma, tau) sum into the (id, rho) sum
term by term, rho[j] = sigma^-1(tau[j]).  So the ansatz holds one operator
per word rho, and the solve runs over those k! columns, the pairs (id, rho).
The report still counts (k!)^2 unknowns and lists every pair: a pair with
sigma != id repeats an earlier column, never pivots and so carries 0.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import permutations, product

from . import linsolve
from .diffop import BiDiffOp, DiffOp, Record, substitute, substitute_sum
from .errors import UsageError
from .poly import Poly2
from .quantize import quantize


class FitReport(Record):
    """Outcome of fit_lie_words: status is "ok", "underdetermined" or
    "not_representable", and lambdas maps (sigma, tau) to a Fraction.  An
    omitted lambdas or samples is a fresh empty dict or list."""

    __slots__ = ("k", "status", "lambdas", "num_unknowns", "rank", "kernel_dim", "samples")

    def __init__(self, k: int, status: str, lambdas: dict | None = None, num_unknowns: int = 0,
                 rank: int = 0, kernel_dim: int = 0, samples: list | None = None):
        self.k = k
        self.status = status
        self.lambdas = {} if lambdas is None else lambdas
        self.num_unknowns = num_unknowns
        self.rank = rank
        self.kernel_dim = kernel_dim
        self.samples = [] if samples is None else samples


def _separable_terms(phi: Poly2):
    """Monomial decomposition phi = sum_i xi_i(x) * eta_i(y)."""
    out = []
    for (i, j), c in phi.sorted_terms():
        out.append((Poly2.monomial(i, 0, c), Poly2.monomial(0, j)))
    return out


def _word_op(letters, order, key):
    """Compose the letters' first-order operators in word order (leftmost outermost)."""
    op = DiffOp.identity()
    for idx in order:
        op = substitute(op, 0, DiffOp({key: letters[idx]}))
    return op


def _ansatz_ops(phi: Poly2, k: int):
    """BiDiffOp per word rho, the (id, rho) pair, summed over index tuples in one kernel call."""
    terms = _separable_terms(phi)
    words = list(permutations(range(k)))
    items = {w: [] for w in words}
    mult = BiDiffOp.multiplication()
    for tup in product(range(len(terms)), repeat=k + 1):
        # (f, g) -> X_tup[0] .. X_tup[k] f * g
        left = substitute(mult, 0, _word_op([terms[i][0] for i in tup], range(k + 1), (1, 0)))
        etas = [terms[i][1] for i in tup]
        for w in words:
            items[w].append((1, left, 1, _word_op(etas, (0,) + tuple(1 + i for i in w), (0, 1))))
    return {w: substitute_sum(its) if its else BiDiffOp() for w, its in items.items()}


def _table(op):
    """slot -> {(i, j): Fraction}, read off op's integer form."""
    den, terms = op._lifted
    return {key: {(i, j): Fraction(v, den) for i, j, v in flat} for key, flat in terms}


def fit_lie_words(phi_samples, k: int) -> FitReport:
    if type(k) is not int or k < 1:
        raise UsageError(f"k must be an integer >= 1, got {k!r}")
    samples = list(phi_samples) if isinstance(phi_samples, Iterable) else None
    if samples is None or not all(isinstance(p, Poly2) for p in samples):
        raise UsageError(f"phi_samples must be an iterable of Poly2, got {phi_samples!r}")
    if not samples:
        raise UsageError("fit_lie_words needs at least one sample phi")
    words = list(permutations(range(k)))
    rows = []
    targets = []
    for phi in samples:
        target = quantize(phi, k + 1).order_op(k + 1)
        ops = _ansatz_ops(phi, k)
        targets.append((target, ops))
        want = _table(target)
        tables = [_table(ops[w]) for w in words]
        for key in sorted(set(want).union(*tables)):
            rhs = want.get(key, {})
            cols = [t.get(key, {}) for t in tables]
            for mon in sorted(set(rhs).union(*cols)):
                rows.append(({c: col[mon] for c, col in enumerate(cols) if mon in col},
                             rhs.get(mon, Fraction(0))))
    res = linsolve.solve(rows, len(words))
    unknowns = len(words) ** 2
    report = FitReport(k=k, status="ok", num_unknowns=unknowns, rank=res.rank,
                       kernel_dim=unknowns - res.rank, samples=samples)
    if not res.consistent:
        report.status = "not_representable"
        return report
    # re-substitute to certify the fit on every sample: one kernel sum of the
    # ansatz operators, each under the constant multiplier lambda
    for target, ops in targets:
        items = [(1, DiffOp({(0, 0): lam}), 0, ops[w]) for w, lam in zip(words, res.solution) if lam]
        if (substitute_sum(items) if items else BiDiffOp()) != target:
            report.status = "not_representable"
            return report
    # the (id, rho) pairs come first in sorted order; every other pair gets 0
    report.lambdas = dict(zip(product(words, words),
                              res.solution + [Fraction(0)] * (unknowns - len(words))))
    if report.kernel_dim:
        report.status = "underdetermined"
    return report
