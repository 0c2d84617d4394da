"""Deterministic sparse Gaussian elimination over exact rationals.

Rows are dicts {column index: Fraction} plus a right-hand side.  Pivoting is
fully deterministic (rows processed in input order, pivot = least column of
the reduced row), so repeated runs produce bit-identical solutions.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import Record


class SolveResult(Record):
    """solution is None when the system is inconsistent."""

    __slots__ = ("consistent", "solution", "rank", "kernel_dim")

    def __init__(self, consistent: bool, solution: list | None, rank: int, kernel_dim: int):
        self.consistent = consistent
        self.solution = solution
        self.rank = rank
        self.kernel_dim = kernel_dim


def solve(rows, ncols: int) -> SolveResult:
    """Solve the sparse system; free variables are set to zero.

    rows: iterable of (coeffs: dict[int, Fraction], rhs: Fraction).
    """
    pivots = {}  # col -> (rowdict normalized to pivot coeff 1, rhs)
    consistent = True
    for coeffs, rhs in rows:
        row = {c: v for c, v in coeffs.items() if v}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = 1 / row[col]
                if inv != 1:
                    row = {c: v * inv for c, v in row.items()}
                    rhs = rhs * inv
                pivots[col] = (row, rhs)
                break
            factor = row.pop(col)
            prow, prhs = piv
            for c, v in prow.items():
                if c == col:
                    continue
                acc = row.get(c, 0) - factor * v
                if acc:
                    row[c] = acc
                elif c in row:
                    del row[c]
            rhs = rhs - factor * prhs
        else:
            consistent = consistent and not rhs
    rank = len(pivots)
    if not consistent:
        return SolveResult(False, None, rank, ncols - rank)
    # back substitution, descending pivot columns; free variables are 0
    sol = [Fraction(0)] * ncols
    for col in sorted(pivots, reverse=True):
        prow, prhs = pivots[col]
        acc = prhs
        for c, v in prow.items():
            if c != col:
                acc -= v * sol[c]
        sol[col] = acc
    return SolveResult(True, sol, rank, ncols - rank)
