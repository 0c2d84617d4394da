"""Test-only reference: the per-slot Leibniz loops the engine used before
diffop.substitute, and op_sum, a sum of operators scaled by coefficients.

Each function below works the direct way, on the Poly2 terms of its
operators: for every pair of terms and every split of the outer derivative
(_splits2 / _splits3), it differentiates the inner Poly2 coefficient,
multiplies, and accumulates with _accum, one coefficient object per term.
They share no code with the integer-lifted kernel, so tests compare the two.
"""

from math import comb, factorial

from starplane.diffop import BiDiffOp, DiffOp, TriDiffOp


def _accum(d, key, poly):
    """d[key] += poly, dropping the key when the sum is zero."""
    if not poly:
        return
    acc = d.get(key)
    if acc is None:
        d[key] = poly
    else:
        s = acc + poly
        if s:
            d[key] = s
        else:
            del d[key]


def op_sum(parts):
    """sum of c * op over the (c, op) parts, c a Poly2, int or Fraction, summed
    slot by slot with Poly2 arithmetic; the operator type is the first op's."""
    parts = list(parts)
    d = {}
    for c, op in parts:
        for key, p in op.terms.items():
            _accum(d, key, p * c)
    return type(parts[0][1])(d)


def _splits2(n):
    """All (p, q) with p+q == n componentwise, with binomial multiplicities."""
    nx, ny = n
    out = []
    for px in range(nx + 1):
        for py in range(ny + 1):
            m = comb(nx, px) * comb(ny, py)
            out.append(((px, py), (nx - px, ny - py), m))
    return out


def _splits3(n):
    """All (p, q, r) with p+q+r == n componentwise, with multinomials."""
    nx, ny = n
    out = []
    fx, fy = factorial(nx), factorial(ny)
    for px in range(nx + 1):
        for qx in range(nx - px + 1):
            rx = nx - px - qx
            mx = fx // (factorial(px) * factorial(qx) * factorial(rx))
            for py in range(ny + 1):
                for qy in range(ny - py + 1):
                    ry = ny - py - qy
                    my = fy // (factorial(py) * factorial(qy) * factorial(ry))
                    out.append(((px, py), (qx, qy), (rx, ry), mx * my))
    return out


def compose(self: DiffOp, other: DiffOp) -> DiffOp:
    """self after other: compose(self, other)(f) == self(other(f))."""
    d = {}
    for (ax, ay), a in self.terms.items():
        for (bx, by), b in other.terms.items():
            for rho, tail, m in _splits2((ax, ay)):
                db = b.dx(rho[0]).dy(rho[1])
                if not db:
                    continue
                key = (tail[0] + bx, tail[1] + by)
                _accum(d, key, a * db * m)
    return DiffOp(d)


def hochschild_b(D) -> TriDiffOp:
    """(bD)(f,g,h) = f D(g,h) - D(fg,h) + D(f,gh) - D(f,g) h, as an operator."""
    d = {}
    for (A, B), c in D.terms.items():
        _accum(d, ((0, 0), A, B), c)
        for p, q, m in _splits2(A):
            _accum(d, (p, q, B), c * (-m))
        for p, q, m in _splits2(B):
            _accum(d, (A, p, q), c * m)
        _accum(d, (A, B, (0, 0)), -c)
    return TriDiffOp(d)


def compose_in_first(outer: BiDiffOp, inner: BiDiffOp) -> TriDiffOp:
    """The tridifferential operator (f,g,h) -> outer(inner(f,g), h)."""
    d = {}
    for (A, B), c in outer.terms.items():
        for (al, be), e in inner.terms.items():
            for p, q, r, m in _splits3(A):
                de = e.dx(p[0]).dy(p[1])
                if not de:
                    continue
                key = ((al[0] + q[0], al[1] + q[1]), (be[0] + r[0], be[1] + r[1]), B)
                _accum(d, key, c * de * m)
    return TriDiffOp(d)


def compose_in_second(outer: BiDiffOp, inner: BiDiffOp) -> TriDiffOp:
    """The tridifferential operator (f,g,h) -> outer(f, inner(g,h))."""
    d = {}
    for (A, B), c in outer.terms.items():
        for (al, be), e in inner.terms.items():
            for p, q, r, m in _splits3(B):
                de = e.dx(p[0]).dy(p[1])
                if not de:
                    continue
                key = (A, (al[0] + q[0], al[1] + q[1]), (be[0] + r[0], be[1] + r[1]))
                _accum(d, key, c * de * m)
    return TriDiffOp(d)


def _precompose(M: BiDiffOp, U: DiffOp, slot: int) -> BiDiffOp:
    """Replace argument `slot` of M by U(argument), as an exact operator."""
    d = {}
    for (A, B), c in M.terms.items():
        tgt = A if slot == 0 else B
        for (ux, uy), u in U.terms.items():
            for rho, tail, mult in _splits2(tgt):
                du = u.dx(rho[0]).dy(rho[1])
                if not du:
                    continue
                new = (tail[0] + ux, tail[1] + uy)
                key = (new, B) if slot == 0 else (A, new)
                _accum(d, key, c * du * mult)
    return BiDiffOp(d)


def _postcompose(V: DiffOp, M: BiDiffOp) -> BiDiffOp:
    """The operator (f,g) -> V(M(f,g))."""
    d = {}
    for (mu_x, mu_y), v in V.terms.items():
        for (A, B), c in M.terms.items():
            for p, q, r, mult in _splits3((mu_x, mu_y)):
                dc = c.dx(p[0]).dy(p[1])
                if not dc:
                    continue
                key = ((A[0] + q[0], A[1] + q[1]), (B[0] + r[0], B[1] + r[1]))
                _accum(d, key, v * dc * mult)
    return BiDiffOp(d)
