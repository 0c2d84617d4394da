"""Series quantization by interpolation, kept as a test oracle for
quantize.quantize_series.

The order-j part of quantize(phi) is homogeneous of degree j in phi, so
quantizing phi_t = sum t^i psi_i at D+1 rational values of t (D = N times
the degree of psi in h) and inverting the Vandermonde matrix in t recovers
every multilinear component; the t^d piece of order j lands at h^(j+d).
This route shares nothing with quantize_series except the single-polynomial
quantize.
"""

from fractions import Fraction

from starplane.diffop import BiDiffOp
from starplane.poly import Poly2
from starplane.quantize import quantize
from starplane.star import StarProduct


def invert_dense(matrix):
    """Exact inverse of a small dense rational matrix (list of lists)."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def oracle_quantize_series(coeffs, N: int) -> StarProduct:
    """Star product of sum h^i coeffs[i] through h^N, by interpolation in t."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        return StarProduct(N, {})
    D = N * (len(coeffs) - 1)
    ts = list(range(D + 1))
    prods = []
    for t in ts:
        phi_t = Poly2.zero()
        for i, c in enumerate(coeffs):
            phi_t = phi_t + c * Fraction(t) ** i
        prods.append(quantize(phi_t, N))
    vinv = invert_dense([[Fraction(t) ** d for d in range(D + 1)] for t in ts])
    orders = {n: {} for n in range(1, N + 1)}
    for j in range(1, N + 1):
        keys = set()
        for p in prods:
            keys |= set(p.order_op(j).terms)
        for key in keys:
            values = [p.order_op(j).terms.get(key, Poly2.zero()) for p in prods]
            for n in range(j, min(N, j + D) + 1):
                cd = Poly2.zero()
                for t in ts:
                    w = vinv[n - j][t]
                    if w:
                        cd = cd + values[t] * w
                if cd:
                    orders[n][key] = orders[n].get(key, Poly2.zero()) + cd
    return StarProduct(N, {n: BiDiffOp(terms) for n, terms in orders.items()})
