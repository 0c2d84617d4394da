"""Test-only affine substitution, the reference for the equivariance checks."""

from fractions import Fraction

from starplane.poly import Poly2


class DegenerateMap(Exception):
    """Affine substitution with a vanishing linear coefficient."""


def subs_affine(p: Poly2, a, b, c, d) -> Poly2:
    """p(a*x + b, c*y + d), expanded; a and c must be nonzero."""
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    if not a or not c:
        raise DegenerateMap("affine substitution needs a != 0 and c != 0")
    fx = Poly2({(1, 0): a, (0, 0): b})
    fy = Poly2({(0, 1): c, (0, 0): d})
    out = Poly2.zero()
    for (i, j), coef in p.terms.items():
        out = out + fx ** i * fy ** j * coef
    return out
