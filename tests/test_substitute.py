"""diffop.substitute, the one composition kernel, against the per-slot
Leibniz loops it replaced (tests/compose_oracle.py)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compose_oracle as oracle
from starplane.diffop import (
    BiDiffOp,
    DiffOp,
    TriDiffOp,
    hochschild_b,
    substitute,
    substitute_sum,
)
from starplane.localized import LocalizedFn
from starplane.poly import X, Y, Poly2
from starplane.series import HSeries

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
    max_size=3,
).map(Poly2)
idx = st.tuples(st.integers(0, 2), st.integers(0, 2))


def coefficients(order):
    """Poly2 for order None, else an HSeries of that truncation order."""
    if order is None:
        return small_polys
    return st.lists(small_polys, min_size=order + 1, max_size=order + 1).map(
        lambda cs: HSeries(order, cs))


def operators(arity, order):
    key = idx if arity == 1 else st.tuples(*[idx] * arity)
    cls = {1: DiffOp, 2: BiDiffOp}[arity]
    return st.dictionaries(key, coefficients(order), max_size=3).map(cls)


def oracle_substitute(outer, slot, inner):
    """The loop that composed this slot and arity pairing before the kernel."""
    if outer.arity == 1:
        return oracle.compose(outer, inner) if inner.arity == 1 else oracle._postcompose(outer, inner)
    if inner.arity == 1:
        return oracle._precompose(outer, inner, slot)
    return (oracle.compose_in_first, oracle.compose_in_second)[slot](outer, inner)


# (outer arity, slot, inner arity): every pairing the engine composes
PAIRINGS = [(1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 1, 1), (2, 0, 2), (2, 1, 2)]
# Poly2 on both sides, HSeries of differing truncation orders, and the mixed
# Poly2 x HSeries case of K_1 meeting phi_t * K_j in quantize_series
ORDERS = [(None, None), (0, 0), (2, 1), (1, 3), (None, 2), (2, None)]


@st.composite
def cases(draw):
    arity_out, slot, arity_in = draw(st.sampled_from(PAIRINGS))
    order_out, order_in = draw(st.sampled_from(ORDERS))
    outer = draw(operators(arity_out, order_out))
    inner = draw(operators(arity_in, order_in))
    other = inner if draw(st.booleans()) else draw(operators(arity_in, order_in))
    return outer, slot, inner, other


@given(cases(), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_substitute_matches_the_leibniz_loops(case, sign):
    outer, slot, inner, other = case
    want = oracle_substitute(outer, slot, inner)
    assert substitute(outer, slot, inner) == want
    # one accumulator for several substitutions; with other == inner and
    # sign == 1 every slot cancels to zero
    got = substitute_sum([(sign, outer, slot, inner), (-1, outer, slot, other)])
    assert got == want.scale(sign) - oracle_substitute(outer, slot, other)
    if other is inner and sign == 1:
        assert got.is_zero()


@given(st.sampled_from([None, 0, 2]).flatmap(lambda n: operators(2, n)))
@settings(max_examples=50, deadline=None)
def test_hochschild_b_matches_the_split_loops(D):
    assert hochschild_b(D) == oracle.hochschild_b(D)


def test_truncation_drops_every_slot_beyond_the_order():
    # t * x times t * y lands at t^2, beyond order 1 on both sides: nothing is left
    outer = BiDiffOp({((1, 0), (0, 0)): HSeries(1, [Poly2(), X])})
    inner = BiDiffOp({((0, 0), (0, 1)): HSeries(1, [Poly2(), Y])})
    assert oracle.compose_in_first(outer, inner).is_zero()
    assert substitute(outer, 0, inner).is_zero()
    assert isinstance(substitute(outer, 0, inner), TriDiffOp)


def test_other_coefficient_rings_are_refused():
    phi = X * Y + 1
    local = BiDiffOp({((0, 0), (0, 0)): LocalizedFn(X, 1, phi)})
    series = BiDiffOp({((0, 0), (0, 0)): HSeries(1, [LocalizedFn(X, 0, phi)] * 2)})
    for op in (local, series):
        with pytest.raises(TypeError):
            substitute(BiDiffOp.multiplication(), 0, op)
        with pytest.raises(TypeError):
            substitute(op, 1, BiDiffOp.multiplication())
