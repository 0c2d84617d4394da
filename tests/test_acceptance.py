"""Acceptance gate: ten end-to-end criteria, all exact (zero tolerance).

Each test prints a single PASS/FAIL line so the gate can be read off the
test log directly.
"""

import subprocess
import sys
from fractions import Fraction
from math import factorial

import random

from affine_oracle import subs_affine
from certify_oracle import hochschild_b, pure_shape
from compose_oracle import op_sum
from solve_oracle import oracle_solve_order, prior_ops
from starplane.berezin import apply_S, berezin_pipeline
from starplane.diffop import euler_lagrange, build_rhs_T
from starplane.liewords import fit_lie_words
from starplane.localized import LocalizedFn
from starplane.parser import parse_poly
from starplane.poly import ONE, X, Y, Poly2, format_poly
from starplane.quantize import classify_p2, quantize, solve_order
from starplane.series import HSeries
from starplane.star import (
    assoc_defect,
    is_associative,
    moyal_fixture,
    normalize,
    spq_membership,
    star_mul,
)

ASSOC_PHIS = [parse_poly(s) for s in ["x", "x*y", "x^2*y - 3*y", "2*x + 5"]]

def _report(n, desc):
    """Tag a test so conftest emits one 'PASS/FAIL  criterion N: ...' line."""

    def wrap(fn):
        fn.acceptance_line = (n, desc)
        return fn

    return wrap

@_report(1, "quantize(1, N=6) is the normal-ordered table (1/k!) dx^k (x) dy^k")
def test_criterion_1_moyal_type():
    m = quantize(ONE, 6)
    for k in range(1, 7):
        assert m.ktables[k].terms == {((k, 0), (0, k)): Poly2.const(Fraction(1, factorial(k)))}
    assert is_associative(m)

@_report(2, "order-2 closed form kappa = (phi_xy, phi_y, phi_x, phi)/2 for four phis")
def test_criterion_2_order2_closed_form():
    K1 = pure_shape({(1, 1): ONE})
    half = Fraction(1, 2)
    for phi in [X * Y, X ** 2, X ** 2 * Y - 3 * Y, X + Y + 1]:
        K2 = solve_order(build_rhs_T(2, 0, *prior_ops(phi, [K1])), 2)
        expected = pure_shape({
            (1, 1): phi.dx().dy() * half,
            (2, 1): phi.dy() * half,
            (1, 2): phi.dx() * half,
            (2, 2): phi * half,
        })
        assert K2 == expected
        # independent validation: b(phi*K_2) = phi*T_2 on monomial triples
        T2 = build_rhs_T(2, 0, *prior_ops(phi, [K1]))
        bK = hochschild_b(expected)
        mons = [Poly2.monomial(i, j) for i in range(4) for j in range(4 - i)]
        for f in mons:
            for g in mons:
                for h in mons:
                    assert phi * bK.apply(f, g, h) == phi * T2.apply(f, g, h)

@_report(3, "assoc_defect(quantize(phi, N=4)) vanishes identically for four phis")
def test_criterion_3_associativity():
    for phi in ASSOC_PHIS:
        d = assoc_defect(quantize(phi, 4))
        assert all(op.is_zero() for op in d.values())

@_report(4, "the generic solve has kernel 0 at every order; the dx(x)dy cocycle breaks EL")
def test_criterion_4_uniqueness():
    for phi in ASSOC_PHIS:
        m = quantize(phi, 4)
        for k in range(2, 5):
            _, res = oracle_solve_order(phi, [m.ktables[i] for i in range(1, k)], k)
            assert res.kernel_dim == 0
            bumped = op_sum([(1, m.ktables[k]), (1, pure_shape({(1, 1): ONE}))])
            assert hochschild_b(bumped) == hochschild_b(m.ktables[k])
            assert euler_lagrange(bumped, "x") != {}

@_report(5, "classify_p2(quantize(phi, N=4)) returns the constant series phi")
def test_criterion_5_round_trip():
    for phi in ASSOC_PHIS:
        assert classify_p2(quantize(phi, 4)).trimmed() == [phi]

@_report(6, "normalize(moyal(1, N=4)): U_1 = -1/2 dxdy, normal-ordered result, classify = 1")
def test_criterion_6_normalization():
    U, out = normalize(moyal_fixture(1, 4))
    assert U.order_op(1).terms == {(1, 1): Poly2.const(Fraction(-1, 2))}
    for k in range(1, 5):
        assert out.order_op(k).terms == {((k, 0), (0, k)): Poly2.const(Fraction(1, factorial(k)))}
    assert spq_membership(out)
    assert classify_p2(out).trimmed() == [ONE]
    # transmutation oracle: the gauged product on x^m, y^n agrees with the
    # normal-ordered closed form
    for mm in range(3):
        for nn in range(3):
            s = star_mul(out, Poly2.monomial(mm, 0), Poly2.monomial(0, nn))
            for k in range(5):
                if k <= min(mm, nn):
                    coef = Fraction(factorial(mm) * factorial(nn),
                                    factorial(k) * factorial(mm - k) * factorial(nn - k))
                    assert s.coeffs[k] == Poly2.monomial(mm - k, nn - k, coef)
                else:
                    assert s.coeffs[k].is_zero()

@_report(7, "affine equivariance for D = (2x+1, -y), phi = xy, through h^3, deg <= 4")
def test_criterion_7_equivariance():
    phi = X * Y
    a, b, c, d = Fraction(2), Fraction(1), Fraction(-1), Fraction(0)
    pushed = subs_affine(phi, 1 / a, -b / a, 1 / c, -d / c) * (a * c)
    mD = quantize(pushed, 3)
    m = quantize(phi, 3)
    for p in range(5):
        for q in range(5 - p):
            for r in range(5):
                for s in range(5 - r):
                    f, g = Poly2.monomial(p, q), Poly2.monomial(r, s)
                    lhs = star_mul(mD, f, g)
                    rhs = star_mul(m, subs_affine(f, a, b, c, d), subs_affine(g, a, b, c, d))
                    for k in range(4):
                        assert subs_affine(lhs[k], a, b, c, d) == rhs[k]

@_report(8, "Berezin: phi=1 flat; phi in {x, xy} at N=3 satisfy the density identities")
def test_criterion_8_berezin():
    flat = berezin_pipeline(ONE, 3)
    assert not flat.S
    assert flat.f == HSeries.constant(LocalizedFn(1, 0, ONE), 3)

    for phi in (X, X * Y):
        data = berezin_pipeline(phi, 3)
        lhs = (data.f + apply_S(data.S, data.f).dy()) * LocalizedFn(phi, 0, phi)
        assert lhs == HSeries.constant(LocalizedFn(1, 0, phi), 3)
        inv = HSeries.constant(LocalizedFn.one_over_phi(phi), 3)
        assert data.f - inv == data.tau.dy()

    # the xy run reproduces the frozen low-order values
    data = berezin_pipeline(X * Y, 3)
    assert data.S[0].coeffs[1] == LocalizedFn(Y * Fraction(1, 2), 0, X * Y)
    assert data.f.coeffs[0] == LocalizedFn.one_over_phi(X * Y)
    assert not data.f.coeffs[1]

@_report(9, "Lie-word fit at k = 1, 2, 3 over {xy, x^2y, xy^2, x^3y^2} is consistent")
def test_criterion_9_lie_words():
    samples = [parse_poly(s) for s in ["x*y", "x^2*y", "x*y^2", "x^3*y^2"]]
    for k in (1, 2, 3):
        r = fit_lie_words(samples, k)
        assert r.status in ("ok", "underdetermined"), r.status
        assert any(r.lambdas.values())
    assert fit_lie_words(samples, 1).lambdas == {((0,), (0,)): Fraction(1, 2)}

@_report(10, "1000 randomized parse/print round trips; CLI output byte-identical")
def test_criterion_10_parser_and_determinism():
    rng = random.Random(20260826)
    for _ in range(1000):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            mon = (rng.randint(0, 7), rng.randint(0, 7))
            terms[mon] = Fraction(rng.randint(-1000, 1000), rng.randint(1, 200))
        p = Poly2(terms)
        assert parse_poly(format_poly(p)) == p

    cmd = [sys.executable, "-m", "starplane.cli",
           "quantize", "--phi", "x^2*y - 3*y", "--order", "3"]
    runs = {subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(3)}
    assert len(runs) == 1
