"""Object-level forms of two certificates, kept as test oracles.

diffop.euler_lagrange sums on integer numerators and star.extract_poisson_p3
reads at most six slots in closed form; these are the definitions they
replace, computed with Poly2 arithmetic and operator application.
"""

from starplane.diffop import _accum
from starplane.poly import X, Y
from starplane.star import PoissonSeries


def euler_lagrange(K, axis):
    """For each opposite index, sum (-1)^(n) d^n kappa over the slots of K,
    n one less than the order on the axis; zero functionals are left out."""
    out = {}
    for (a, b), kappa in K.terms.items():
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
