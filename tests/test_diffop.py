"""Multidifferential operators, the Hochschild differential, and the
recursion right-hand side."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certify_oracle
from compose_oracle import op_sum
from certify_oracle import hochschild_b, hochschild_b_closed, pure_shape
from starplane.diffop import (
    BiDiffOp,
    DiffOp,
    TriDiffOp,
    build_rhs_T,
    euler_lagrange,
    hochschild_b_equals,
    is_k2_shape,
    substitute,
)
from starplane.errors import MissingPriorOrder, UsageError
from starplane.poly import ONE, X, Y, Poly2

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=3
).map(Poly2)
diffops = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_polys, max_size=3
).map(DiffOp)


def b_value(D, f, g, h):
    """Four-term defining formula of b, evaluated pointwise."""
    return f * D.apply(g, h) - D.apply(f * g, h) + D.apply(f, g * h) - D.apply(f, g) * h


def monomials(maxdeg):
    return [Poly2.monomial(i, j) for i in range(maxdeg + 1) for j in range(maxdeg + 1 - i)]


def test_diffop_apply():
    op = DiffOp({(1, 1): X})  # x * d2/dxdy
    assert op.apply(X * Y) == X
    assert op.apply(X ** 2 * Y) == 2 * X ** 2
    assert DiffOp.identity().apply(X + Y) == X + Y


@given(diffops, diffops, small_polys)
@settings(max_examples=80, deadline=None)
def test_compose_matches_sequential_application(u, v, f):
    assert substitute(u, 0, v).apply(f) == u.apply(v.apply(f))


def test_operators_are_built_from_any_mapping():
    # a mapping is read through .items(): an operator's own read-only terms
    # rebuild an equal operator, never one keyed by the slots' multi-indices
    op = BiDiffOp({((1, 0), (0, 1)): X, ((2, 0), (0, 0)): Fraction(1, 3)})
    assert BiDiffOp(op.terms) == op and BiDiffOp(op.terms).terms == op.terms
    assert DiffOp(DiffOp({(1, 1): 2}).terms) == DiffOp({(1, 1): ONE * 2})
    assert BiDiffOp(list(op.terms.items())) == op  # (key, coefficient) pairs still work


@pytest.mark.parametrize("coeff", ["abc", (0, 1), 1.5, None])
def test_operator_coefficients_of_another_type_are_refused(coeff):
    for make in (DiffOp, BiDiffOp, TriDiffOp):
        with pytest.raises(TypeError, match=type(coeff).__name__):
            make({(0, 0) if make.arity == 1 else ((0, 0),) * make.arity: coeff})


@pytest.mark.parametrize("make, key, message", [
    (BiDiffOp, ((1.5, 0), (0, 1)), "a BiDiffOp key must be a tuple of 2 pairs"),
    (BiDiffOp, ((-1, 0), (0, 1)), "a BiDiffOp key must be a tuple of 2 pairs"),
    (BiDiffOp, ((1, 0),), "a BiDiffOp key must be a tuple of 2 pairs"),
    (BiDiffOp, ((True, 0), (0, 1)), "a BiDiffOp key must be a tuple of 2 pairs"),
    (BiDiffOp, (1, 0), "a BiDiffOp key must be a tuple of 2 pairs"),
    (TriDiffOp, ((1, 0), (0, 1)), "a TriDiffOp key must be a tuple of 3 pairs"),
    (DiffOp, ((1, 0),), "a DiffOp key must be a pair"),
    (DiffOp, (1, 0, 0), "a DiffOp key must be a pair"),
    (DiffOp, (2.0, 1), "a DiffOp key must be a pair"),
], ids=["non-int", "negative", "short", "bool", "bare-pair", "tri-short", "diffop-nested",
        "diffop-triple", "diffop-float"])
def test_operator_keys_that_are_not_multi_indices_are_refused(make, key, message):
    with pytest.raises(UsageError, match=re.escape(f"{message} of integers >= 0, got {key!r}")):
        make({key: X})
    with pytest.raises(UsageError):  # the (key, coefficient) pairs form is checked the same way
        make([(key, 1)])


def test_bidiff_apply():
    op = BiDiffOp({((1, 0), (0, 1)): ONE})
    assert op.apply(X ** 2, Y ** 2) == 4 * X * Y
    mul = BiDiffOp.multiplication()
    assert mul.apply(X + 1, Y) == (X + 1) * Y


def test_hochschild_b_of_multiplication_is_zero():
    assert hochschild_b(BiDiffOp.multiplication()).is_zero()


def test_hochschild_b_matches_pointwise_formula():
    D = BiDiffOp({((1, 0), (0, 2)): X, ((1, 1), (1, 0)): Y + 1})
    bD = hochschild_b(D)
    for f in monomials(3):
        for g in monomials(3):
            for h in monomials(3):
                assert bD.apply(f, g, h) == b_value(D, f, g, h)


kappa_keys = st.tuples(st.integers(1, 4), st.integers(1, 4))
pure_shape_ops = st.dictionaries(kappa_keys, small_polys, max_size=4).map(pure_shape)


@given(pure_shape_ops)
@settings(max_examples=60, deadline=None)
def test_hochschild_b_closed_form_matches_kernel(K):
    # b(K) of a pure-shape K in closed form, against the composition kernel
    assert hochschild_b_closed(K) == hochschild_b(K)


def test_compositions_match_pointwise():
    outer = BiDiffOp({((1, 0), (0, 1)): X, ((2, 0), (0, 0)): ONE})
    inner = BiDiffOp({((1, 0), (0, 2)): Y, ((0, 0), (0, 1)): X})
    first = substitute(outer, 0, inner)
    second = substitute(outer, 1, inner)
    for f in monomials(2):
        for g in monomials(2):
            for h in monomials(2):
                assert first.apply(f, g, h) == outer.apply(inner.apply(f, g), h)
                assert second.apply(f, g, h) == outer.apply(f, inner.apply(g, h))


def test_build_rhs_T_is_the_order2_associator():
    # with only K_1 = dx (x) dy, phi*T_2 must equal the h^2 associator of
    # m = fg + h*phi*K_1
    phi = X ** 2 * Y - 3 * Y
    K1 = pure_shape({(1, 1): ONE})
    m1 = op_sum([(phi, K1)])
    T2 = build_rhs_T(2, 0, [[K1]], [[m1]])
    for f in monomials(3):
        for g in monomials(3):
            for h in monomials(3):
                assoc = m1.apply(m1.apply(f, g), h) - m1.apply(f, m1.apply(g, h))
                assert phi * T2.apply(f, g, h) == assoc


def test_build_rhs_T_splits_by_t_degree():
    # for phi_t = psi_0 + t psi_1, m_1 = phi_t K_1 has two t-rows, and
    # psi_0 T_2[d] + psi_1 T_2[d-1] must be the t^d part of the h^2 associator
    psi = [X * Y, X + Y ** 2]
    K1 = pure_shape({(1, 1): ONE})
    m1 = [op_sum([(p, K1)]) for p in psi]
    T = [build_rhs_T(2, d, [[K1]], [m1]) for d in range(3)]
    assert T[2].is_zero()  # K_1 has one row and m_1 two, so T_2 stops at t^1
    for f in monomials(2):
        for g in monomials(2):
            for h in monomials(2):
                for d in range(3):
                    assoc = sum((m1[a].apply(m1[d - a].apply(f, g), h)
                                 - m1[a].apply(f, m1[d - a].apply(g, h))
                                 for a in range(max(d - 1, 0), min(d, 1) + 1)), Poly2())
                    got = psi[0] * T[d].apply(f, g, h)
                    if d:
                        got = got + psi[1] * T[d - 1].apply(f, g, h)
                    assert got == assoc, d


def test_build_rhs_T_needs_priors():
    K1 = pure_shape({(1, 1): ONE})
    with pytest.raises(MissingPriorOrder):
        build_rhs_T(3, 0, [[K1]], [[op_sum([(X, K1)])]])
    with pytest.raises(ValueError):
        build_rhs_T(1, 0, [], [])


def test_euler_lagrange_examples():
    # dx-divergence form: kappa_1b = dx(kappa_2b) makes EL_x vanish
    K = pure_shape({(2, 2): X ** 2 * Y, (1, 2): 2 * X * Y})
    assert euler_lagrange(K, "x") == {}
    assert euler_lagrange(K, "y") != {}
    # the cocycle dx (x) dy fails EL on both axes
    C = pure_shape({(1, 1): ONE})
    assert euler_lagrange(C, "x") == {1: ONE}
    assert euler_lagrange(C, "y") == {1: ONE}
    with pytest.raises(ValueError):
        euler_lagrange(C, "z")
    # a BiDiffOp written out with its pure-shape keys
    assert euler_lagrange(BiDiffOp({((1, 0), (0, 1)): X}), "x") == {1: X}


def test_shapes():
    good = BiDiffOp({((2, 0), (0, 1)): X})
    bad = BiDiffOp({((2, 1), (0, 1)): X})
    assert is_k2_shape(good) and not is_k2_shape(bad)


def balanced(K, axis):
    """K with kappa_1b (axis x) or kappa_a1 (axis y) shifted so that the
    oracle's functional on that axis vanishes."""
    fix = {(1, key) if axis == "x" else (key, 1): -val
           for key, val in certify_oracle.euler_lagrange(K, axis).items()}
    return op_sum([(1, K), (1, pure_shape(fix))])


@given(pure_shape_ops, st.sampled_from([None, "x", "y"]))
@settings(max_examples=150, deadline=None)
def test_euler_lagrange_matches_object_level_oracle(K, balance):
    if balance:
        K = balanced(K, balance)
    for axis in ("x", "y"):
        assert euler_lagrange(K, axis) == certify_oracle.euler_lagrange(K, axis)
    if balance:
        assert euler_lagrange(K, balance) == {}


def test_euler_lagrange_edge_cases():
    with pytest.raises(ValueError):
        euler_lagrange(BiDiffOp(), "t")
    assert euler_lagrange(BiDiffOp(), "x") == {}


@pytest.mark.parametrize("slot", [
    ((0, 0), (0, 1)),  # no x-derivative on f
    ((1, 0), (0, 0)),  # no y-derivative on g
    ((1, 1), (0, 1)),  # a y-derivative on f
    ((1, 0), (1, 1)),  # an x-derivative on g
])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_euler_lagrange_names_the_first_slot_off_shape(slot, axis):
    K = BiDiffOp({((2, 0), (0, 2)): X, slot: Y, ((1, 0), (1, 0)): ONE})
    with pytest.raises(ValueError, match=re.escape(str(slot))):
        euler_lagrange(K, axis)


def test_b_check_refuses_a_k_off_pure_shape():
    # (a, b) read off ((1, 1), (0, 2)) would pass for the pure-shape
    # ((1, 0), (0, 2)), whose b(K) is this T; the check names the slot instead
    T = TriDiffOp({((1, 0), (0, 1), (0, 1)): 2 * X})
    assert hochschild_b_equals(BiDiffOp({((1, 0), (0, 2)): X}), T)
    K = BiDiffOp({((1, 0), (0, 2)): X, ((1, 1), (0, 2)): X, ((1, 0), (1, 1)): Y})
    for bad in (BiDiffOp({((1, 1), (0, 2)): X}), K):
        with pytest.raises(ValueError, match=re.escape(str(((1, 1), (0, 2))))):
            hochschild_b_equals(bad, T)
        with pytest.raises(ValueError, match=re.escape(str(((1, 1), (0, 2))))):
            euler_lagrange(bad, "x")


def off_by_one(c):
    """c with one numerator (over its own denominator) raised by one."""
    (i, j) = next(iter(c._num))
    return c + Poly2.monomial(i, j, Fraction(1, c._den))


def perturbed(T):
    """Copies of T that differ from it in one slot, each labelled."""
    terms = dict(T.terms)
    slot, c = next(iter(terms.items()))
    yield "extra slot", TriDiffOp({**terms, ((0, 0), (0, 0), (1, 0)): c})
    yield "slot dropped", TriDiffOp({k: v for k, v in terms.items() if k != slot})
    yield "numerator off by one", TriDiffOp({**terms, slot: off_by_one(c)})


@given(pure_shape_ops)
@settings(max_examples=100, deadline=None)
def test_slotwise_b_check_matches_building_b(K):
    T = hochschild_b(K)
    assert hochschild_b_equals(K, T)
    if not T:
        assert hochschild_b_equals(K, TriDiffOp({((0, 0), (0, 0), (1, 0)): ONE})) is False
        return
    for label, bad in perturbed(T):
        assert bad != T, label
        assert hochschild_b_equals(K, bad) is (hochschild_b(K) == bad) is False, label
