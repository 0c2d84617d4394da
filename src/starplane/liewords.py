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
"""

from __future__ import annotations

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


def _word_op(letters, order, axis):
    """Compose L over the given letters in word order (leftmost outermost)."""
    op = DiffOp.identity()
    for idx in order:
        xi = letters[idx]
        key = (1, 0) if axis == "x" else (0, 1)
        op = op.compose(DiffOp({key: xi}))
    return op


def _ansatz_ops(phi: Poly2, k: int):
    """BiDiffOp per (sigma, tau) word pair, summed over index tuples in one kernel call."""
    terms = _separable_terms(phi)
    words = list(permutations(range(k)))
    items = {(s, t): [] for s in words for t in words}
    mult = BiDiffOp.multiplication()
    for tup in product(range(len(terms)), repeat=k + 1):
        xis = [terms[i][0] for i in tup]
        etas = [terms[i][1] for i in tup]
        x_words = {}
        y_words = {}
        for w in words:
            order = [0] + [1 + w[i] for i in range(k)]
            x_words[w] = _word_op(xis, order, "x")
            y_words[w] = _word_op(etas, order, "y")
        for s in words:
            left = substitute(mult, 0, x_words[s])  # (f, g) -> word_s(f) * g
            for t in words:
                items[s, t].append((1, left, 1, y_words[t]))
    return {pair: substitute_sum(its) if its else BiDiffOp() for pair, its in items.items()}


def _table(op):
    """slot -> {(i, j): Fraction}, read off op's integer form."""
    den, terms = op._lifted
    return {key: {(i, j): Fraction(v, den) for i, j, v in flat} for key, flat in terms}


def fit_lie_words(phi_samples, k: int) -> FitReport:
    if type(k) is not int or k < 1:
        raise UsageError(f"k must be an integer >= 1, got {k!r}")
    samples = list(phi_samples)
    if not samples:
        raise UsageError("fit_lie_words needs at least one sample phi")
    pairs = None
    rows = []
    targets = []
    for phi in samples:
        m = quantize(phi, k + 1)
        target = m.order_op(k + 1)
        ops = _ansatz_ops(phi, k)
        if pairs is None:
            pairs = sorted(ops)
        targets.append((target, ops))
        want = _table(target)
        tables = [_table(ops[pair]) for pair in pairs]
        for key in sorted(set(want).union(*tables)):
            rhs = want.get(key, {})
            cols = [t.get(key, {}) for t in tables]
            for mon in sorted(set(rhs).union(*cols)):
                rows.append(({c: col[mon] for c, col in enumerate(cols) if mon in col},
                             rhs.get(mon, Fraction(0))))
    res = linsolve.solve(rows, len(pairs))
    report = FitReport(k=k, status="ok", num_unknowns=len(pairs),
                       rank=res.rank, kernel_dim=res.kernel_dim,
                       samples=samples)
    if not res.consistent:
        report.status = "not_representable"
        return report
    lambdas = {pairs[i]: res.solution[i] for i in range(len(pairs))}
    # re-substitute to certify the fit on every sample: one kernel sum of the
    # ansatz operators, each under the constant multiplier lambda
    for target, ops in targets:
        items = [(1, DiffOp({(0, 0): lam}), 0, ops[pair]) for pair, lam in lambdas.items() if lam]
        if (substitute_sum(items) if items else BiDiffOp()) != target:
            report.status = "not_representable"
            return report
    report.lambdas = lambdas
    if res.kernel_dim:
        report.status = "underdetermined"
    return report
