"""Generic per-order solve, kept as a test oracle for quantize.solve_order.

Every kappa_ab coefficient within an operator-order cap and a
coefficient-degree cap becomes an unknown; each slot of b(K) = T_k and each
Euler-Lagrange functional becomes scalar equations, and the sparse system
is solved with linsolve.solve.  The caps double on each escalation when T_k
reaches a slot outside them or the system is inconsistent.  The result's
kernel_dim is the executable form of the uniqueness lemma: 0 means the
admissible table is unique within the caps.
"""

from fractions import Fraction
from math import comb, perm

from certify_oracle import pure_shape
from compose_oracle import op_sum
from starplane import linsolve
from starplane.diffop import TriDiffOp, build_rhs_T
from starplane.poly import Poly2


def prior_ops(phi, tables):
    """(kops, mops) of build_rhs_T for the operators K_1.. of phi: each K_i and
    each product order phi K_i, one t-degree row per order."""
    return [[K] for K in tables], [[op_sum([(phi, K)])] for K in tables]


def total_degree(p: Poly2) -> int:
    """Max total degree of a term; 0 for the zero polynomial."""
    return max((i + j for i, j in p._num), default=0)


def _mons_upto(deg: int):
    out = []
    for t in range(deg + 1):
        for i in range(t, -1, -1):
            out.append((i, t - i))
    return out


def _build_system(T: TriDiffOp, op_cap: int, deg_cap: int):
    """Scalar system for the unknown kappa coefficients; None if a T slot
    cannot be produced by any unknown within the caps."""
    mons = _mons_upto(deg_cap)
    monset = set(mons)
    cols = {}
    for a in range(1, op_cap + 1):
        for b in range(1, op_cap + 1):
            for mon in mons:
                cols[(a, b, mon)] = len(cols)
    rows = []
    covered = set()
    zero = Poly2.zero()
    for a in range(1, op_cap + 1):
        for b in range(1, op_cap + 1):
            slot_eqs = []
            for l in range(1, b):
                slot = ((a, 0), (0, l), (0, b - l))
                covered.add(slot)
                slot_eqs.append((Fraction(comb(b, l)), T.terms.get(slot, zero)))
            for j in range(1, a):
                slot = ((j, 0), (a - j, 0), (0, b))
                covered.add(slot)
                slot_eqs.append((Fraction(-comb(a, j)), T.terms.get(slot, zero)))
            if not slot_eqs:
                continue
            active = [e for e in slot_eqs if e[1]]
            emit = slot_eqs if active else slot_eqs[:1]
            for cmul, rhs in emit:
                for mon in monset | set(rhs.terms):
                    coef = {}
                    if mon in monset:
                        coef[cols[(a, b, mon)]] = cmul
                    rows.append((coef, rhs.terms.get(mon, Fraction(0))))
    for slot, rhs in T.terms.items():
        if slot not in covered and rhs:
            return None  # slot unreachable at these caps
    # Euler-Lagrange constraints, both axes
    for axis in ("x", "y"):
        for opp in range(1, op_cap + 1):
            per_mon = {}
            for d in range(1, op_cap + 1):
                sign = Fraction((-1) ** (d - 1))
                for (i, j) in mons:
                    if axis == "x":
                        if i < d - 1:
                            continue
                        tgt = (i - (d - 1), j)
                        fall = perm(i, d - 1)
                        col = cols[(d, opp, (i, j))]
                    else:
                        if j < d - 1:
                            continue
                        tgt = (i, j - (d - 1))
                        fall = perm(j, d - 1)
                        col = cols[(opp, d, (i, j))]
                    if not fall:
                        continue
                    per_mon.setdefault(tgt, {})[col] = (
                        per_mon.get(tgt, {}).get(col, Fraction(0)) + sign * fall
                    )
            for tgt in sorted(per_mon, key=lambda m: (m[0] + m[1], m[0])):
                rows.append((per_mon[tgt], Fraction(0)))
    return cols, rows


def oracle_solve_order(phi: Poly2, K_prior, k: int, escalation_steps: int = 3):
    """(K_k, linsolve.SolveResult) from the generic sparse system at order k.

    The caps start at 2k on a, b and at deg T_k + deg phi + 2 on the
    coefficient degree, and double up to escalation_steps times.
    """
    T = build_rhs_T(k, 0, *prior_ops(phi, K_prior))
    deg_T = max((total_degree(p) for p in T.terms.values()), default=0)
    op_cap0, deg_cap0 = 2 * k, deg_T + total_degree(phi) + 2
    for esc in range(escalation_steps + 1):
        built = _build_system(T, op_cap0 * 2 ** esc, deg_cap0 * 2 ** esc)
        if built is None:
            continue
        cols, rows = built
        res = linsolve.solve(rows, len(cols))
        if not res.consistent:
            continue
        table = {}
        for (a, b, mon), idx in cols.items():
            v = res.solution[idx]
            if v:
                table.setdefault((a, b), {})[mon] = v
        return pure_shape({ab: Poly2(t) for ab, t in table.items()}), res
    raise AssertionError(f"order {k}: no solution after {escalation_steps} escalations")
