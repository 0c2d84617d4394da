"""Object-level forms of three certificates, kept as test oracles.

diffop.euler_lagrange sums on integer numerators, star.extract_poisson_p3
reads at most six slots in closed form, and diffop.hochschild_b_equals
compares T with the closed form of b(K) without building it; these are the
definitions they replace, computed with Poly2 arithmetic, operator
application and the composition kernel.  hochschild_b_closed builds b(K)
from the closed form itself, so the two routes can be compared, and
pure_shape writes a kappa_ab table as the operator K_k.
"""

from starplane.diffop import BiDiffOp, TriDiffOp, _accum, _b_terms, substitute_sum
from starplane.poly import X, Y
from starplane.star import PoissonSeries


def pure_shape(table) -> BiDiffOp:
    """The pure-shape operator with kappa_ab = table[a, b] on dx^a (x) dy^b."""
    return BiDiffOp({((a, 0), (0, b)): kappa for (a, b), kappa in table.items()})


def hochschild_b(D) -> TriDiffOp:
    """(bD)(f,g,h) = f D(g,h) - D(fg,h) + D(f,gh) - D(f,g) h, through the
    composition kernel."""
    mult = BiDiffOp.multiplication()
    return substitute_sum([(1, mult, 1, D), (-1, D, 0, mult), (1, D, 1, mult), (-1, mult, 0, D)])


def hochschild_b_closed(K) -> TriDiffOp:
    """b(K) for a pure-shape K, built from the closed form of diffop._b_terms."""
    return TriDiffOp._of({slot: kappa * f for slot, kappa, f in _b_terms(K.terms.items())})


def euler_lagrange(K, axis):
    """For each opposite index, sum (-1)^(n) d^n kappa over the slots of K,
    n one less than the order on the axis; zero functionals are left out."""
    out = {}
    for ((a, _), (_, b)), kappa in K.terms.items():
        if axis == "x":
            key, val = b, kappa.dx(a - 1) * ((-1) ** (a - 1))
        elif axis == "y":
            key, val = a, kappa.dy(b - 1) * ((-1) ** (b - 1))
        else:
            raise ValueError("axis must be 'x' or 'y'")
        _accum(out, key, val)
    return out


def extract_poisson_p3(m):
    """Coefficient of h^(k-1) is m_k(x, y) - m_k(y, x), by applying m_k."""
    coeffs = []
    for k in range(1, m.n_order + 1):
        op = m.order_op(k)
        coeffs.append(op.apply(X, Y) - op.apply(Y, X))
    return PoissonSeries(m.n_order - 1, coeffs)
