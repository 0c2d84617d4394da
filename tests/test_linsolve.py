"""linsolve.solve, the exact sparse elimination behind fit_lie_words, on small
systems whose answers are known by hand."""

from copy import deepcopy
from fractions import Fraction as F

from starplane.linsolve import solve


def residuals(rows, solution):
    """rhs - row . solution for each row; all zero iff the solution satisfies them."""
    return [rhs - sum(v * solution[c] for c, v in coeffs.items()) for coeffs, rhs in rows]


def test_full_rank_system():
    # 2x + y = 3, x - 3y = -2: x = 1, y = 1; 3x = 1 adds z = 1/3
    rows = [({0: F(2), 1: F(1)}, F(3)), ({0: F(1), 1: F(-3)}, F(-2)), ({2: F(3)}, F(1))]
    res = solve(rows, 3)
    assert res.consistent and res.rank == 3 and res.kernel_dim == 0
    assert res.solution == [F(1), F(1), F(1, 3)]
    assert not any(residuals(rows, res.solution))


def test_rank_deficient_system_sets_free_variables_to_zero():
    # the second row is twice the first, and column 3 appears in no row:
    # x0 and x1 are pivots, x2 and x3 are free and so 0
    rows = [({0: F(1), 1: F(1), 2: F(1)}, F(2)),
            ({0: F(2), 1: F(2), 2: F(2)}, F(4)),
            ({1: F(1), 2: F(-1)}, F(1))]
    res = solve(rows, 4)
    assert res.consistent and res.rank == 2 and res.kernel_dim == 2
    assert res.solution == [F(1), F(1), F(0), F(0)]
    assert not any(residuals(rows, res.solution))


def test_inconsistent_system():
    # x + y = 1 and 2x + 2y = 3 cannot both hold
    rows = [({0: F(1), 1: F(1)}, F(1)), ({0: F(2), 1: F(2)}, F(3)), ({1: F(1)}, F(5))]
    res = solve(rows, 2)
    assert res.consistent is False and res.solution is None
    assert res.rank == 2 and res.kernel_dim == 0


def test_zero_coefficients_are_not_pivots():
    # an explicit zero coefficient is no entry: 0x + 3y = 6 pivots on y
    rows = [({0: F(0), 1: F(3)}, F(6)), ({0: F(2), 1: F(0)}, F(4)), ({0: F(0)}, F(0))]
    res = solve(rows, 2)
    assert res.consistent and res.rank == 2 and res.kernel_dim == 0
    assert res.solution == [F(2), F(2)]
    # a row of zeros with a nonzero right-hand side is inconsistent, and adds no rank
    res = solve(rows + [({0: F(0), 1: F(0)}, F(1))], 2)
    assert res.consistent is False and res.solution is None and res.rank == 2


def test_repeated_solve_gives_an_identical_solution():
    rows = [({0: F(3), 2: F(1, 2)}, F(7)), ({1: F(-2), 2: F(5)}, F(1, 3)),
            ({0: F(1), 1: F(1), 2: F(1)}, F(2)), ({0: F(6), 2: F(1)}, F(14))]
    before = deepcopy(rows)
    first, second = solve(rows, 3), solve(rows, 3)
    assert rows == before  # the input rows are not modified
    assert first.consistent and first.rank == 3
    assert [(v.numerator, v.denominator) for v in first.solution] \
        == [(v.numerator, v.denominator) for v in second.solution]
    assert (first.rank, first.kernel_dim) == (second.rank, second.kernel_dim)
    assert not any(residuals(rows, first.solution))
