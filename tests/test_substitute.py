"""diffop.substitute, the one composition kernel, against the per-slot
Leibniz loops it replaced (tests/compose_oracle.py)."""

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compose_oracle as oracle
from gauge_oracle import oracle_gauge_transform, oracle_normalize
from starplane import diffop, docs
from certify_oracle import hochschild_b
from starplane.diffop import (
    BiDiffOp,
    DiffOp,
    TriDiffOp,
    substitute,
    substitute_sum,
)
from starplane.localized import LocalizedFn
from starplane.parser import parse_poly
from starplane.poly import X, Y, Poly2
from starplane.quantize import _step, quantize, quantize_series
from starplane.series import HSeries
from starplane.star import (GaugeOp, StarProduct, assoc_defect, gauge_transform, is_associative,
                            normalize)

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
    max_size=3,
).map(Poly2)
idx = st.tuples(st.integers(0, 2), st.integers(0, 2))


def operators(arity, coefficients=small_polys):
    key = idx if arity == 1 else st.tuples(*[idx] * arity)
    cls = {1: DiffOp, 2: BiDiffOp, 3: TriDiffOp}[arity]
    return st.dictionaries(key, coefficients, max_size=3).map(cls)


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
    assert got == oracle.op_sum([(sign, want), (-1, oracle_substitute(outer, slot, other))])
    if other is inner and sign == 1:
        assert got.is_zero()


# inner coefficients of degree 3 in x and in y, so every share p <= A of an
# outer derivative A <= (3, 3) is live; the inner keys hold both rest = 0
# (an underived term) and derived arguments
DEEP = X ** 3 * Y ** 3 - Fraction(1, 2) * X ** 2 * Y + Y ** 3 + 1
DEEP_INNERS = {1: DiffOp({(0, 1): DEEP, (0, 0): X * Y ** 2}),
               2: BiDiffOp({((1, 0), (0, 2)): DEEP, ((0, 0), (0, 0)): X ** 3 - Y})}


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("A", [(ax, ay) for ax in range(4) for ay in range(4)])
def test_outer_derivatives_up_to_3_3_match_the_leibniz_loops(pairing, A):
    # the Hypothesis cases above stop at derivatives (2, 2)
    arity_out, slot, arity_in = pairing
    key = A if arity_out == 1 else ((A, (1, 0)) if slot == 0 else ((0, 1), A))
    outer = {1: DiffOp, 2: BiDiffOp}[arity_out]({key: X + 2 * Y ** 2})
    inner = DEEP_INNERS[arity_in]
    assert substitute(outer, slot, inner) == oracle_substitute(outer, slot, inner)
    twice = substitute_sum([(1, outer, slot, inner), (2, outer, slot, inner)])
    assert twice == oracle.op_sum([(3, oracle_substitute(outer, slot, inner))])


def test_an_inner_of_three_arguments_is_refused():
    tri = TriDiffOp({((0, 0), (1, 0), (0, 1)): X})
    for outer in (DiffOp({(1, 0): Y}), BiDiffOp({((1, 0), (0, 1)): Y})):
        with pytest.raises(ValueError, match="arity 1 or 2, got 3"):
            substitute_sum([(1, outer, 0, tri)])


def test_shares_split_a_multi_index_in_two():
    for nx in range(5):
        for ny in range(5):
            shares = diffop._shares((nx, ny))
            assert sorted(q for (q, _), _ in shares) == [
                (qx, qy) for qx in range(nx + 1) for qy in range(ny + 1)]
            for ((qx, qy), rest), w in shares:
                assert rest == (nx - qx, ny - qy) and w == comb(nx, qx) * comb(ny, qy)
            assert sum(w for _, w in shares) == 2 ** (nx + ny)


# output arity -> the pairings that give it; one call sums items of one output arity
BY_ARITY = {}
for _pairing in PAIRINGS:
    BY_ARITY.setdefault(_pairing[0] + _pairing[2] - 1, []).append(_pairing)


@st.composite
def sums(draw, inner_coefficients=small_polys):
    """2-5 items of one output arity, each with its own sign, outer, slot and
    inner; the derivatives come from a small range, so items share buckets."""
    arity = draw(st.sampled_from(sorted(BY_ARITY)))
    items = []
    for _ in range(draw(st.integers(2, 5))):
        arity_out, slot, arity_in = draw(st.sampled_from(BY_ARITY[arity]))
        items.append((draw(st.integers(-3, 3)), draw(operators(arity_out)), slot,
                      draw(operators(arity_in, inner_coefficients))))
    return items


def oracle_sum(items):
    return oracle.op_sum((sign, oracle_substitute(outer, slot, inner))
                         for sign, outer, slot, inner in items)


@given(sums())
@settings(max_examples=150, deadline=None)
def test_a_sum_of_items_matches_the_leibniz_loops(items):
    assert substitute_sum(items) == oracle_sum(items)


def one_variable_polys(exponent):
    return st.dictionaries(exponent, st.fractions(min_value=-6, max_value=6, max_denominator=5),
                           min_size=1, max_size=3).map(Poly2)


# inner coefficients of degree 0 in x, in y or in both: the shares of an outer
# derivative beyond that degree are skipped, one variable at a time
ONE_VARIABLE = {
    "constant": one_variable_polys(st.just((0, 0))),
    "x-only": one_variable_polys(st.tuples(st.integers(0, 3), st.just(0))),
    "y-only": one_variable_polys(st.tuples(st.just(0), st.integers(0, 3))),
}


@pytest.mark.parametrize("kind", sorted(ONE_VARIABLE))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_shares_past_the_inner_degree_are_skipped_exactly(kind, data):
    items = data.draw(sums(ONE_VARIABLE[kind]))
    assert substitute_sum(items) == oracle_sum(items)


@pytest.mark.parametrize("m", [1, 2, 5, 16])
def test_exponents_at_the_packing_bound_and_past_it(m):
    # a call keys x^i y^j by i << s | j with every input y-exponent below
    # 2^(s-1) (_width), so a product reaches at most 2^s - 2; top = 2^m - 1
    # is the largest exponent for its s, and 2^m the first that needs s + 1
    for top in (2 ** m - 1, 2 ** m):
        s = diffop._width([(1, [(((0, 0),), [(3, top, 1), (2 ** m + 5, 0, 1)])])])
        assert top < 2 ** (s - 1)
        c = X ** 3 * Y ** top + X ** (2 ** m + 5) - Y ** (top - 1) * Fraction(1, 3)
        e = Y ** top * 2 + X * Y ** (top - 1)
        outer = BiDiffOp({((1, 1), (0, 2)): c, ((0, 0), (2, 1)): e})
        inner = BiDiffOp({((0, 1), (1, 0)): e, ((0, 0), (0, 0)): c})
        for slot in (0, 1):
            got = substitute(outer, slot, inner)
            assert got == oracle_substitute(outer, slot, inner)
            assert max(j for p in got.terms.values() for _, j in p._num) == 2 * top
        assert substitute(DiffOp({(0, 2): c}), 0, DiffOp({(1, 1): e})) == oracle.compose(
            DiffOp({(0, 2): c}), DiffOp({(1, 1): e}))
        # normalize reads U_k and m'_k off R_k int-keyed too
        m_top = StarProduct(1, {1: BiDiffOp({((1, 0), (0, 1)): e, ((1, 0), (1, 0)): c})})
        assert normalize(m_top) == oracle_normalize(m_top)


@given(operators(2))
@settings(max_examples=50, deadline=None)
def test_hochschild_b_matches_the_split_loops(D):
    assert hochschild_b(D) == oracle.hochschild_b(D)


def test_other_coefficient_rings_are_refused():
    # the constructor refuses them, so no operator holds one and the kernel
    # reads only integer forms
    phi = X * Y + 1
    terms = [{((0, 0), (0, 0)): LocalizedFn(X, 1, phi)},
             {((0, 0), (0, 0)): HSeries(1, [LocalizedFn(X, 0, phi)] * 2)},
             {((1, 0), (0, 0)): HSeries(1, [X, Y])}]
    for d in terms:
        with pytest.raises(TypeError):
            BiDiffOp(d)


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
    shared = oracle.op_sum([(Fraction(1, draw(denominators)), draw(operators(arity)))])
    calls = []
    for _ in range(draw(st.integers(2, 4))):
        as_outer = draw(st.booleans())
        arity_out, slot, arity_in = draw(st.sampled_from(
            [p for p in PAIRINGS if (p[0] if as_outer else p[2]) == arity]))
        other = oracle.op_sum([(Fraction(1, draw(denominators)),
                                draw(operators(arity_in if as_outer else arity_out)))])
        calls.append((shared, slot, other) if as_outer else (other, slot, shared))
    return shared, calls


@given(reuse_cases())
@settings(max_examples=100, deadline=None)
def test_a_reused_operator_composes_like_the_oracle(case):
    shared, calls = case
    twin = type(shared)(shared.terms)  # equal, lifted from its terms anew
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
    fresh = docs.star_product_from_doc(json.loads(text))  # equal operators, lifted from their terms
    # every operator has its form from birth: kernel results and constructed ones alike
    assert all(op._lifted[1] for p in (m, fresh) for op in p.orders.values())
    reprs = [repr(op) for op in m.orders.values()]
    defect = assoc_defect(m)
    assert all(not op for op in defect.values())
    assert m == fresh and fresh == m
    assert [repr(op) for op in m.orders.values()] == reprs
    assert docs.render(docs.star_product_doc(m)) == text
    assert docs.render(docs.star_product_doc(fresh)) == text


def reference_apply(op, *args):
    """op applied with Poly2 arithmetic on its terms."""
    out = Poly2.zero()
    for key, c in op.terms.items():
        for (i, j), f in zip((key,) if op.arity == 1 else key, args, strict=True):
            c = c * f.dx(i).dy(j)
        out = out + c
    return out


def twins(op):
    """Copies of op's integer form, each one numerator off or one slot short."""
    den, terms = op._lifted
    for n, (key, flat) in enumerate(terms):
        (i, j, v), *rest = flat
        off = [(i, j, v + 1 if v != -1 else -2)] + rest  # no numerator becomes zero
        yield type(op)._of_form(den, terms[:n] + [(key, off)] + terms[n + 1:])
        yield type(op)._of_form(den, terms[:n] + terms[n + 1:])


@given(st.sampled_from([1, 2, 3]).flatmap(operators), st.integers(2, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_equality_and_apply_read_the_form(op, q, data):
    # a kernel result over q times op's denominator, not in lowest terms,
    # equals the constructed op; so does a copy built from op's terms
    over = substitute_sum([(q, op, 0, DiffOp({(0, 0): Fraction(1, q)}))])
    den, terms = over._lifted
    assert not terms or gcd(den, *(v for _, flat in terms for _, _, v in flat)) > 1
    for other in [over, type(op)(op.terms), *twins(over), *twins(op)]:
        assert (other == op) == (op == other) == (dict(other.terms) == dict(op.terms))
    assert over == op and all(twin != op for twin in [*twins(over), *twins(op)])
    args = [data.draw(small_polys) for _ in range(op.arity)]
    assert op.apply(*args) == over.apply(*args) == reference_apply(op, *args)


def count_born(monkeypatch):
    """Patch the operator constructor to record, by value, every nonzero
    operator it lifts from a mapping of coefficients."""
    seen = Counter()
    init = diffop._OpBase.__init__

    def counted(self, terms=None):
        init(self, terms)
        if self:  # the form of a constructed operator is canonical for its terms
            seen[repr((type(self).__name__, self._lifted))] += 1

    monkeypatch.setattr(diffop._OpBase, "__init__", counted)
    return seen


def test_quantize_lifts_each_operator_once(monkeypatch):
    _step.cache_clear()
    seen = count_born(monkeypatch)
    m = quantize(parse_poly("x^2*y+x*y^2"), 6)
    # the constructor lifts K_1, phi K_1 and the multiplication by phi, once
    # each; K_2..K_6 are born from their solved numerators and every m part
    # in kernel form, so every operator has its form from birth
    assert len(seen) == 3 and max(seen.values()) == 1
    assert all(op._lifted[1] for op in [*m.orders.values(), *m.ktables.values()])


def test_normalize_lifts_each_operator_once(monkeypatch):
    m = quantize(parse_poly("x^2*y+x*y^2"), 4)
    U = GaugeOp(4, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})
    seen = count_born(monkeypatch)
    W, out = normalize(gauge_transform(m, U))
    assert out == m
    # every operator of the gauge recursion is born in kernel form or read
    # off R_k's numerators: none is lifted from Poly2 terms
    assert not seen
    assert all(op._lifted[1] for p in (W, out) for op in p.orders.values())


def test_returned_orders_keep_their_form_apart_from_their_values(monkeypatch):
    # the orders quantize and quantize_series return carry the integer form
    # they were summed in: no list of it is reachable from the order's public
    # values, so emptying every list leaves the terms and repr a caller has
    # read as they were
    _step.cache_clear()
    seen = count_born(monkeypatch)
    phi = parse_poly("x^2*y+x*y^2")
    U = GaugeOp(4, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})
    W, out = normalize(gauge_transform(quantize(phi, 4), U))
    assert seen and max(seen.values()) == 1  # from quantize on, each operator once
    monkeypatch.undo()
    assert out == quantize(phi, 4)
    try:
        for m in (quantize(phi, 4), quantize_series([X * Y, Y, X], 4)):
            for op in m.orders.values():
                assert substitute(op, 0, DiffOp.identity()) == op
                cached = {id(x) for x in lifted_lists(op)}
                assert not cached & {id(v) for v in public_values(op)}
                before = repr(op), dict(op.terms)
                for x in lifted_lists(op):
                    x.clear()
                assert (repr(op), dict(op.terms)) == before
    finally:
        _step.cache_clear()  # no emptied form can reach a later test


def test_gauge_first_rows_build_no_poly2(monkeypatch):
    # every kernel call of the gauge recursion, the row sums
    # L_n = sum_{q+i=n} m_q(U_i ., .) among them, returns a result that holds
    # only its integer form: no call builds a Poly2 coefficient, whether U is
    # given or solved for
    star = importlib.import_module("starplane.star")
    m = quantize(parse_poly("x^2*y+x*y^2"), 4)
    U = GaugeOp(4, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})
    want = oracle_gauge_transform(m, U)
    calls = []
    kernel = star.substitute_sum

    def counted(items):
        with counting_poly2() as made:
            out = kernel(items)
        calls.append(len(made))
        return out

    monkeypatch.setattr(star, "substitute_sum", counted)
    with counting_poly2() as made:
        got = gauge_transform(m, U)
        # one R_k sum per order and one row sum L_n per order n < N: 2N - 1 calls
        assert len(calls) == 2 * 4 - 1
        W, out = normalize(got)
    # normalize reads U_k and m'_k off R_k's integer form, so neither builds a Poly2
    assert calls == [0] * len(calls) and made == []
    monkeypatch.undo()
    assert got == want and out == m


def test_normalize_reads_off_orders_in_lowest_terms():
    # U_k and m'_k are read off over den(R_k) * lcm of the binomials and then
    # reduced, so the denominators of later kernel calls, products of
    # these, do not grow order by order
    m = quantize(parse_poly("x^2*y+x*y^2"), 5)
    U = GaugeOp(5, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1}),
                    3: DiffOp({(2, 1): Fraction(5, 7)})})
    W, out = normalize(gauge_transform(m, U))
    assert sorted(W.orders) == [1, 2, 3, 4, 5]  # every order is read off
    for op in [*W.orders.values(), *out.orders.values()]:
        den, terms = op._lifted
        assert gcd(den, *(v for _, flat in terms for _, _, v in flat)) == 1
    assert out == m


@contextmanager
def counting_poly2():
    """Record every Poly2 built inside the block (each goes through poly._new)."""
    poly = importlib.import_module("starplane.poly")
    made, new = [], poly._new
    poly._new = lambda cls: made.append(cls) or new(cls)
    try:
        yield made
    finally:
        poly._new = new


def test_the_associator_of_a_product_builds_no_poly2():
    m = quantize(parse_poly("x^2*y+x*y^2"), 5)
    with counting_poly2() as made:
        assert is_associative(m)
    assert made == []


@given(cases())
@settings(max_examples=100, deadline=None)
def test_a_kernel_result_builds_its_terms_on_first_read_only(case):
    outer, slot, inner, _ = case
    got = substitute(outer, slot, inner)
    with counting_poly2() as made:
        nonzero = bool(got)  # read off the integer form
        assert made == []
        first = got.terms
        built = len(made)
        second = got.terms
    assert nonzero == bool(first) and built == len(first) and len(made) == built
    assert second is first
    assert got == oracle_substitute(outer, slot, inner)
    cached = {id(x) for x in lifted_lists(got)}
    assert not cached & {id(v) for v in public_values(got)}
