"""diffop.substitute, the one composition kernel, against the per-slot
Leibniz loops it replaced (tests/compose_oracle.py)."""

import importlib
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compose_oracle as oracle
from gauge_oracle import oracle_gauge_transform
from starplane import diffop, docs
from certify_oracle import hochschild_b
from starplane.diffop import (
    BiDiffOp,
    DiffOp,
    substitute,
    substitute_sum,
)
from starplane.localized import LocalizedFn
from starplane.parser import parse_poly
from starplane.poly import X, Y, Poly2
from starplane.quantize import _quantize_cached, quantize
from starplane.series import HSeries
from starplane.star import GaugeOp, assoc_defect, gauge_transform, normalize

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
    max_size=3,
).map(Poly2)
idx = st.tuples(st.integers(0, 2), st.integers(0, 2))


def operators(arity):
    key = idx if arity == 1 else st.tuples(*[idx] * arity)
    cls = {1: DiffOp, 2: BiDiffOp}[arity]
    return st.dictionaries(key, small_polys, max_size=3).map(cls)


def oracle_substitute(outer, slot, inner):
    """The loop that composed this slot and arity pairing before the kernel."""
    if outer.arity == 1:
        return oracle.compose(outer, inner) if inner.arity == 1 else oracle._postcompose(outer, inner)
    if inner.arity == 1:
        return oracle._precompose(outer, inner, slot)
    return (oracle.compose_in_first, oracle.compose_in_second)[slot](outer, inner)


# (outer arity, slot, inner arity): every pairing the engine composes
PAIRINGS = [(1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 1, 1), (2, 0, 2), (2, 1, 2)]


@st.composite
def cases(draw):
    arity_out, slot, arity_in = draw(st.sampled_from(PAIRINGS))
    outer = draw(operators(arity_out))
    inner = draw(operators(arity_in))
    other = inner if draw(st.booleans()) else draw(operators(arity_in))
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


@given(operators(2))
@settings(max_examples=50, deadline=None)
def test_hochschild_b_matches_the_split_loops(D):
    assert hochschild_b(D) == oracle.hochschild_b(D)


def test_other_coefficient_rings_are_refused():
    phi = X * Y + 1
    local = BiDiffOp({((0, 0), (0, 0)): LocalizedFn(X, 1, phi)})
    series = BiDiffOp({((0, 0), (0, 0)): HSeries(1, [LocalizedFn(X, 0, phi)] * 2)})
    poly_series = BiDiffOp({((1, 0), (0, 0)): HSeries(1, [X, Y])})
    for op in (local, series, poly_series):
        with pytest.raises(TypeError):
            substitute(BiDiffOp.multiplication(), 0, op)
        with pytest.raises(TypeError):
            substitute(op, 1, BiDiffOp.multiplication())


# -- the lifted form each operator keeps -------------------------------------

denominators = st.sampled_from([1, 2, 3, 7, 12])
PROBE = DiffOp({(1, 0): X, (0, 2): Poly2.const(Fraction(1, 3))})


def lifted_lists(op):
    """Every list in op's cached integer form."""
    _, terms = op._lifted
    return [terms] + [flat for _, flat in terms]


def public_values(op):
    """What a caller can reach from op without a leading underscore."""
    return [op.terms, *op.terms.values()]


@st.composite
def reuse_cases(draw):
    """One shared operator and partners for it in both roles, over different
    denominators."""
    arity = draw(st.sampled_from([1, 2]))
    shared = draw(operators(arity)).scale(Fraction(1, draw(denominators)))
    calls = []
    for _ in range(draw(st.integers(2, 4))):
        as_outer = draw(st.booleans())
        arity_out, slot, arity_in = draw(st.sampled_from(
            [p for p in PAIRINGS if (p[0] if as_outer else p[2]) == arity]))
        other = draw(operators(arity_in if as_outer else arity_out)).scale(
            Fraction(1, draw(denominators)))
        calls.append((shared, slot, other) if as_outer else (other, slot, shared))
    return shared, calls


@given(reuse_cases())
@settings(max_examples=100, deadline=None)
def test_a_reused_operator_composes_like_the_oracle(case):
    shared, calls = case
    twin = type(shared)._of(dict(shared.terms))  # equal, never lifted
    before = repr(shared)
    for outer, slot, inner in calls:
        got = substitute(outer, slot, inner)
        assert got == oracle_substitute(outer, slot, inner)
        # a kernel result is an operand too, read through the form it was summed in
        assert substitute(got, 0, DiffOp.identity()) == got
        if got.arity < 3:
            assert substitute(got, 0, PROBE) == oracle_substitute(got, 0, PROBE)
            assert substitute(PROBE, 0, got) == oracle_substitute(PROBE, 0, got)
        cached = {id(x) for x in lifted_lists(got)}
        assert not cached & {id(v) for v in public_values(got)}
    assert shared == twin and dict(shared.terms) == dict(twin.terms) and repr(shared) == before
    cached = {id(x) for x in lifted_lists(shared)}
    assert not cached & {id(v) for v in public_values(shared)}


def test_the_lifted_form_is_invisible_in_values_and_documents():
    m = quantize(parse_poly("x^2*y+x*y^2"), 4)
    text = docs.render(docs.star_product_doc(m))
    fresh = docs.star_product_from_doc(json.loads(text))  # equal operators, never lifted
    assert all(not hasattr(op, "_lifted") for op in fresh.orders.values())
    reprs = [repr(op) for op in m.orders.values()]
    defect = assoc_defect(m)  # lifts every order of m
    assert all(not op for op in defect.values())
    assert all(hasattr(op, "_lifted") for op in m.orders.values())
    assert m == fresh and fresh == m
    assert [repr(op) for op in m.orders.values()] == reprs
    assert docs.render(docs.star_product_doc(m)) == text
    assert docs.render(docs.star_product_doc(fresh)) == text


def count_lifts(monkeypatch):
    """Patch diffop._lift to record every operator it computes a form for."""
    seen = Counter()
    lift = diffop._lift

    def counted(op):
        seen[repr(op)] += 1  # by value: an equal operator rebuilt counts again
        return lift(op)

    monkeypatch.setattr(diffop, "_lift", counted)
    return seen


def test_quantize_lifts_each_operator_once(monkeypatch):
    _quantize_cached.cache_clear()
    seen = count_lifts(monkeypatch)
    quantize(parse_poly("x^2*y+x*y^2"), 6)
    # K_1..K_5 as outer operators and phi K_1..phi K_5 as inner ones
    assert len(seen) == 10 and max(seen.values()) == 1


def test_normalize_lifts_each_operator_once(monkeypatch):
    _quantize_cached.cache_clear()
    m = quantize(parse_poly("x^2*y+x*y^2"), 4)
    U = GaugeOp(4, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})
    seen = count_lifts(monkeypatch)
    W, out = normalize(gauge_transform(m, U))
    assert out == m
    assert seen and max(seen.values()) == 1


def test_gauge_first_rows_build_no_poly2(monkeypatch):
    # first[i][q] = m_q(U_i ., .) is read only by the kernel, so it stays in
    # the kernel's integer form: building a row makes no Poly2 coefficient
    star = importlib.import_module("starplane.star")
    m = quantize(parse_poly("x^2*y+x*y^2"), 4)
    U = GaugeOp(4, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})
    want = oracle_gauge_transform(m, U)
    made, rows = [], []
    make, form = diffop._make, star._substitute_form
    monkeypatch.setattr(diffop, "_make", lambda num, den: made.append(den) or make(num, den))

    def row(items):
        before = len(made)
        out = form(items)
        rows.append(len(made) - before)
        assert not hasattr(out, "terms")
        return out

    monkeypatch.setattr(star, "_substitute_form", row)
    assert gauge_transform(m, U) == want
    # U_1 and U_2 are nonzero and k < N = 4 for both: rows of 4 and 3 entries
    assert rows == [0] * 7 and made
