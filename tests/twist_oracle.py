"""Test-only reference: the abelian twist exp(h X (x) Y) for a separable phi.

For phi = xi(x) eta(y) the vector fields X = xi dx and Y = eta dy commute,
and quantize(phi, N) is sum_k h^k / k! X^k (x) Y^k.  A univariate
polynomial is a {degree: Fraction} dict, and X^k = sum_i c_(k,i) dx^i is
built by c_(k+1,i) = xi (c_(k,i)' + c_(k,i-1)) from c_(0,0) = 1.  Nothing
here comes from the engine.
"""

from fractions import Fraction
from math import factorial


def _add(p, q):
    out = dict(p)
    for i, c in q.items():
        out[i] = out.get(i, 0) + c
    return {i: c for i, c in out.items() if c}


def _mul(p, q):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {i: c for i, c in out.items() if c}


def _deriv(p):
    return {i - 1: i * c for i, c in p.items() if i}


def powers(xi, N):
    """[X^0, .., X^N] for X = xi d: X^k as {i: c_(k,i)}, zero c left out."""
    out = [{0: {0: Fraction(1)}}]
    for _ in range(N):
        prev = out[-1]
        nxt = {}
        for i in range(max(prev, default=-1) + 2):
            c = _mul(xi, _add(_deriv(prev.get(i, {})), prev.get(i - 1, {})))
            if c:
                nxt[i] = c
        out.append(nxt)
    return out


def twist_orders(xi, eta, N):
    """{k: {((i, 0), (0, j)): {(px, py): Fraction}}}, k = 1..N: the order-k
    operator of exp(h X (x) Y), xi a polynomial in x and eta one in y."""
    xs, ys = powers(xi, N), powers(eta, N)
    orders = {}
    for k in range(1, N + 1):
        f = Fraction(1, factorial(k))
        orders[k] = {((i, 0), (0, j)): {(px, py): a * b * f for px, a in c.items()
                                        for py, b in d.items()}
                     for i, c in xs[k].items() for j, d in ys[k].items()}
    return orders
