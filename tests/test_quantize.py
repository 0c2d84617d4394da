"""The order-by-order engine: closed forms, uniqueness, series inputs,
and the classifier round trip."""

import importlib
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certify_oracle import hochschild_b, pure_shape
from series_oracle import oracle_quantize_series
from solve_oracle import oracle_solve_order, prior_ops
from starplane import diffop, docs
from starplane.diffop import BiDiffOp, TriDiffOp, euler_lagrange, build_rhs_T
from starplane.errors import Infeasible, NotInImage, NotNormalized, UsageError

from starplane.poly import ONE, X, Y, Poly2
from starplane.quantize import (
    _quantize_cached,
    classify_p2,
    quantize,
    quantize_series,
    solve_order,
)
from starplane.star import (
    PoissonSeries,
    StarProduct,
    extract_poisson_p3,
    is_associative,
    moyal_fixture,
    spq_membership,
)

PHI_SET = [X, X * Y, X ** 2 * Y - 3 * Y, 2 * X + 5]

def order2_table(phi):
    half = Fraction(1, 2)
    return pure_shape({
        (1, 1): phi.dx().dy() * half,
        (2, 1): phi.dy() * half,
        (1, 2): phi.dx() * half,
        (2, 2): phi * half,
    })

@pytest.mark.parametrize("phi", [X * Y, X ** 2, X ** 2 * Y - 3 * Y, X + Y + 1])
def test_order2_closed_form(phi):
    K1 = pure_shape({(1, 1): ONE})
    K2 = solve_order(build_rhs_T(2, 0, *prior_ops(phi, [K1])), 2)
    assert K2 == order2_table(phi)
    K2_generic, res = oracle_solve_order(phi, [K1], 2)
    assert K2_generic == K2
    assert res.kernel_dim == 0

def test_order2_closed_form_satisfies_recursion_independently():
    # frozen oracle check: b(K_2) = T_2 for the hand-solved table
    for phi in [X * Y, X ** 2, X + Y + 1]:
        K1 = pure_shape({(1, 1): ONE})
        assert hochschild_b(order2_table(phi)) == build_rhs_T(2, 0, *prior_ops(phi, [K1]))
        assert euler_lagrange(order2_table(phi), "x") == {}
        assert euler_lagrange(order2_table(phi), "y") == {}

def test_phi_zero_gives_pointwise_product():
    m = quantize(Poly2.zero(), 3)
    assert all(not m.order_op(k) for k in range(1, 4))

def test_constant_phi_is_moyal_type():
    # m_k = phi * K_k must come out as (c^k/k!) dx^k (x) dy^k
    for c in (Fraction(1), Fraction(3, 2)):
        m = quantize(Poly2.const(c), 4)
        for k in range(1, 5):
            expected = {((k, 0), (0, k)): Poly2.const(c ** k / factorial(k))}
            assert m.order_op(k).terms == expected

def test_quantize_invariants_per_order():
    phi = X ** 2 * Y - 3 * Y
    m = quantize(phi, 4)
    assert spq_membership(m)
    assert m.order_op(1).terms == {((1, 0), (0, 1)): phi}
    for k in range(2, 5):
        K = m.ktables[k]
        T = build_rhs_T(k, 0, *prior_ops(phi, [m.ktables[i] for i in range(1, k)]))
        assert hochschild_b(K) == T
        assert euler_lagrange(K, "x") == {}
        assert euler_lagrange(K, "y") == {}
        _, res = oracle_solve_order(phi, [m.ktables[i] for i in range(1, k)], k)
        assert res.kernel_dim == 0

@pytest.mark.parametrize("phi", [
    ONE, X, X * Y, X ** 2 * Y + X * Y ** 2, X ** 3 * Y ** 2, 1 + X + Y ** 2,
    X ** 2 + Y ** 2 + X * Y,
])
def test_closed_form_matches_generic_solve(phi):
    # the generic sparse solve, fed its own lower orders, must land on the
    # same tables as the read-off, with a trivial kernel at every order
    m = quantize(phi, 4)
    tables = [pure_shape({(1, 1): ONE})]
    for k in range(2, 5):
        K, res = oracle_solve_order(phi, tables, k)
        assert K == m.ktables[k]
        assert res.kernel_dim == 0
        tables.append(K)

@pytest.mark.parametrize("phi", [X * Y, X ** 2 * Y + X * Y ** 2])
def test_every_single_entry_perturbation_breaks_the_recursion(phi):
    # uniqueness lemma: changing any one kappa_ab of K_k, including entries
    # that are zero, breaks b(K) = T_k or an Euler-Lagrange functional
    m = quantize(phi, 4)
    for k in range(2, 5):
        K = m.ktables[k]
        T = build_rhs_T(k, 0, *prior_ops(phi, [m.ktables[i] for i in range(1, k)]))
        for a in range(1, k + 2):
            for b in range(1, k + 2):
                for bump in (ONE, X ** 2 * Y):
                    bumped = K + pure_shape({(a, b): bump})
                    assert (hochschild_b(bumped) != T or euler_lagrange(bumped, "x")
                            or euler_lagrange(bumped, "y")), (k, a, b, bump)

@pytest.mark.parametrize("phi", PHI_SET)
def test_associativity(phi):
    assert is_associative(quantize(phi, 4))

def test_cocycle_breaks_euler_lagrange():
    # appending c*dx(x)dy to a solution keeps b(K) = T but must violate EL,
    # which is exactly how uniqueness is enforced
    m = quantize(X * Y, 3)
    for k in range(2, 4):
        K = m.ktables[k]
        bumped = K + pure_shape({(1, 1): ONE})
        assert hochschild_b(bumped) == hochschild_b(K)
        assert euler_lagrange(bumped, "x") != {}

def test_solve_order_checks_every_slot_of_T():
    # a slot that no read-off uses still has to match b(K): one more slot,
    # or one slot changed, makes the certificate fail, whether T is an
    # operator or the recursion's kernel form
    phi = X ** 2 * Y + X * Y ** 2
    m = quantize(phi, 3)
    for k in (2, 3):
        ops = prior_ops(phi, [m.ktables[i] for i in range(1, k)])
        T, form = build_rhs_T(k, 0, *ops), diffop._rhs_form(k, 0, *ops)
        assert solve_order(T, k) == solve_order(form, k) == m.ktables[k]
        # slots of the shape dx f dx^(a-1) g dy^b h with b >= 2 are read by no kappa
        unread = [(A, B, C) for A, B, C in T.terms if A == (1, 0) and B[1] == 0 and C[1] >= 2]
        assert unread
        extra = TriDiffOp({((0, 0), (0, 0), (1, 0)): ONE})
        for delta in [extra] + [TriDiffOp({slot: X}) for slot in unread]:
            errors = []
            for bad in (T + delta, diffop._substitute_form(
                    [(1, form, 0, diffop._ONE), (1, delta, 0, diffop._ONE)])):
                with pytest.raises(Infeasible) as caught:
                    solve_order(bad, k)
                errors.append(str(caught.value))
            assert errors[0] == errors[1]


def count_poly2(monkeypatch, run):
    """The Poly2s built while run() runs, and the K_k[d] it solves."""
    poly = importlib.import_module("starplane.poly")
    module = importlib.import_module("starplane.quantize")
    made, ks = [], []
    new, solve = poly._new, module.solve_order
    monkeypatch.setattr(poly, "_new", lambda cls: made.append(cls) or new(cls))
    monkeypatch.setattr(module, "solve_order", lambda T, k: ks.append(solve(T, k)) or ks[-1])
    out = run()
    monkeypatch.undo()
    return len(made), sum(len(K.terms) for K in ks), out


def test_the_recursion_builds_no_poly2_for_T_or_m(monkeypatch):
    # T_k[d] and m_j[d] stay in the kernel's integer form: the Poly2s built
    # are the kappa of each K_k[d], the slots of each product order, psi, and
    # the constant of K_1 in each pass (before: about 1,260 per classify pass)
    psi = [X * Y, Y, X]
    made, kappas, m = count_poly2(monkeypatch, lambda: quantize_series(psi, 5))
    slots = sum(len(op.terms) for op in m.orders.values())
    assert made <= kappas + slots + 1
    made, kappas, back = count_poly2(monkeypatch, lambda: classify_p2(m))
    assert back.trimmed() == psi
    assert made <= kappas + len(back.coeffs) + 1
    _quantize_cached.cache_clear()
    phi = X ** 2 * Y + X * Y ** 2
    made, kappas, m = count_poly2(monkeypatch, lambda: quantize(phi, 5))
    assert kappas == sum(len(K.terms) for k, K in m.ktables.items() if k >= 2)
    assert made <= kappas + sum(len(op.terms) for op in m.orders.values()) + 1


@pytest.mark.parametrize("psi, N", [
    ([X * Y, X], 4), ([X * Y, Y, X], 3), ([X * Y, X ** 2 * Y], 5), ([X * Y, Poly2.zero(), X], 5),
])
def test_quantize_series_forms_each_product_once(monkeypatch, psi, N):
    # no psi_c K_j[d] is formed twice, and the oracle shows none is missing:
    # each one is a kernel item whose outer operator multiplies by psi_c
    module = importlib.import_module("starplane.quantize")
    calls = []
    form = module._substitute_form

    def counted(items):
        calls.extend((repr(outer.terms[0, 0]), repr(inner))
                     for _, outer, _, inner in items if outer.arity == 1)
        return form(items)

    monkeypatch.setattr(module, "_substitute_form", counted)
    m = quantize_series(psi, N)
    monkeypatch.undo()
    assert calls and len(calls) == len(set(calls))
    assert all(poly in {repr(p) for p in psi if p} for poly, _ in calls)
    assert m == oracle_quantize_series(psi, N)

def test_quantize_caching_returns_identical_object():
    assert quantize(X * Y, 3) is quantize(Y * X, 3)

@pytest.mark.parametrize("build, arg", [(quantize, X * Y), (quantize_series, [X * Y, X])])
@pytest.mark.parametrize("order", [0, -1, 2.5, "3", True])
def test_order_must_be_an_int_at_least_one(build, arg, order):
    with pytest.raises(UsageError):
        build(arg, order)

def test_cached_product_cannot_be_mutated():
    # quantize hands one cached product to every caller, so a write into it
    # would corrupt every later quantize of the same phi
    m = quantize(X * Y, 3)
    with pytest.raises(TypeError):
        m.orders[2] = BiDiffOp()
    with pytest.raises(TypeError):
        m.ktables[2] = BiDiffOp()
    assert quantize(X * Y, 3).order_op(2)
    assert is_associative(quantize_series([X * Y, X], 3))

@pytest.mark.parametrize("phi", PHI_SET)
def test_classify_round_trip(phi):
    p = classify_p2(quantize(phi, 4))
    assert p.trimmed() == [phi]

def test_quantize_series_matches_single_coefficient():
    phi = X * Y
    assert quantize_series([phi], 3) == quantize(phi, 3)
    assert quantize_series(PoissonSeries(0, [phi]), 3) == quantize(phi, 3)

def test_quantize_series_is_associative_and_classifies_back():
    psi = PoissonSeries(1, [X * Y, X])
    m = quantize_series(psi, 3)
    assert is_associative(m)
    assert spq_membership(m)
    back = classify_p2(m)
    assert back.trimmed() == [X * Y, X]

def test_quantize_series_respects_homogeneity():
    # m_k is k-linear in the bivector, so quantizing h*psi places the order-k
    # operator of quantize(psi) at h^(2k)
    m = quantize_series([Poly2.zero(), X], 4)
    base = quantize(X, 2)
    assert m.order_op(1).is_zero() and m.order_op(3).is_zero()
    assert m.order_op(2) == base.order_op(1)
    assert m.order_op(4) == base.order_op(2)

@pytest.mark.parametrize("psi, N", [
    ([X * Y, X], 1),
    ([X * Y, X, Y, X ** 2 * Y], 2),
    ([X * Y, Poly2.zero(), X], 3),
    ([Poly2.zero(), X, Y], 3),
    ([X * Y, X, Y], 4),
    ([X * Y, X, Y], 5),
    ([X * Y, X, Y, X ** 2 * Y], 4),
    # K_k has t-degree (k-1)(len(psi)-1) < N-k at low orders
    ([X * Y, X], 6),
    ([X * Y, Poly2.zero(), Poly2.zero(), X ** 2 * Y], 5),
])
def test_quantize_series_matches_interpolation_oracle(psi, N):
    # one recursion split by t-degree against D+1 quantizations and a
    # Vandermonde inverse in t; the rendered documents must agree byte for byte
    m, o = quantize_series(psi, N), oracle_quantize_series(psi, N)
    assert m == o
    assert docs.render(docs.star_product_doc(m)) == docs.render(docs.star_product_doc(o))

def test_classify_requires_pure_shape():
    with pytest.raises(NotNormalized):
        classify_p2(moyal_fixture(1, 3))

def test_cocycle_tweak_is_still_in_the_image():
    # adding x * dx (x) dy at order 3 is a Hochschild cocycle, so the result
    # is a different admissible product: the one for the series x + h^2*x
    m = quantize(X, 3)
    tweaked = dict(m.orders)
    tweaked[3] = tweaked[3] + type(tweaked[3])({((1, 0), (0, 1)): X})
    assert classify_p2(StarProduct(3, tweaked)).trimmed() == [X, Poly2.zero(), X]

def test_classify_rejects_products_outside_the_image():
    # dx (x) dy^2 is not a cocycle and is invisible to the skew evaluation,
    # so only the round trip, which compares every slot, can catch it
    m = quantize(X, 3)
    tweaked = dict(m.orders)
    tweaked[2] = tweaked[2] + type(tweaked[2])({((1, 0), (0, 2)): ONE})
    broken = StarProduct(3, tweaked)
    with pytest.raises(NotInImage):
        classify_p2(broken)
    with pytest.raises(ValueError):  # an order beyond the truncation is no product
        StarProduct(3, {**m.orders, 4: m.order_op(1)})

def test_classify_rejects_a_top_order_tweak():
    # at the top order N = 3, m_3 - rest_3 then holds dx (x) dy^2 beside
    # dx (x) dy, which the round trip must reject
    m = quantize(X, 3)
    tweaked = dict(m.orders)
    tweaked[3] = tweaked[3] + type(tweaked[3])({((1, 0), (0, 2)): ONE})
    with pytest.raises(NotInImage):
        classify_p2(StarProduct(3, tweaked))

@pytest.mark.parametrize("psi, N", [
    ([X * Y], 1),                          # N = 1: the round trip is h psi_0 dx (x) dy alone
    ([X * Y, X, Poly2.zero()], 3),         # psi_(N-1) = 0
    ([X * Y, X], 2),                       # rest_2 comes from psi_0 alone
    ([Poly2.zero(), X], 2),                # ... and rest_2 is zero
    ([Poly2.zero()], 2),
])
def test_classify_round_trip_edge_cases(psi, N):
    assert classify_p2(quantize_series(psi, N)) == PoissonSeries(len(psi) - 1, psi)

def test_classify_runs_the_recursion_once(monkeypatch):
    # one pass by h-order: each T_k[d] is built once, each nonempty one is
    # solved once, and no series product is rebuilt from order 1
    N = 7
    m = quantize_series([X * Y, Y, X], N)
    module = importlib.import_module("starplane.quantize")
    rhs, solves, series = [], [], []
    build, solve, qs = module._rhs_form, module.solve_order, module.quantize_series

    def counted_rhs(k, d, *a):
        T = build(k, d, *a)
        rhs.append(((k, d), bool(T)))
        return T

    monkeypatch.setattr(module, "_rhs_form", counted_rhs)
    monkeypatch.setattr(module, "solve_order", lambda T, k: solves.append(k) or solve(T, k))
    monkeypatch.setattr(module, "quantize_series", lambda *a: series.append(a) or qs(*a))
    assert classify_p2(m).trimmed() == [X * Y, Y, X]
    parts = [key for key, _ in rhs]
    assert len(parts) == len(set(parts)) <= N * (N - 1) // 2
    assert len(solves) == sum(nonempty for _, nonempty in rhs)
    assert series == []

def test_classify_solves_no_empty_part(monkeypatch):
    # past the series' true length the parts T_k[d] are empty; K = 0 is their
    # one solution, so solve_order is not called for them
    m = quantize_series([X * Y, X], 6)
    module = importlib.import_module("starplane.quantize")  # the attribute is the function
    solves = []
    solve = module.solve_order
    monkeypatch.setattr(module, "solve_order", lambda T, k: solves.append(k) or solve(T, k))
    assert classify_p2(m).trimmed() == [X * Y, X]
    assert len(solves) == 11  # 15 with the 4 empty parts solved

def test_classify_passes_no_zero_part_to_the_kernel(monkeypatch):
    # classify_p2 runs the recursion with psi = [0] * N, so parts K_k[d] past
    # the series' true length solve to zero; the T_k[d] and m_j[d] sums leave them out
    m = quantize_series([X * Y, X], 6)
    module = importlib.import_module("starplane.quantize")
    calls = []
    kernel = diffop._substitute_form
    for owner in (diffop, module):
        monkeypatch.setattr(owner, "_substitute_form",
                            lambda items: calls.append(items) or kernel(items))
    assert classify_p2(m).trimmed() == [X * Y, X]
    assert calls and all(outer and inner for items in calls for _, outer, _, inner in items)
    # both routes ran: T_k[d] (three arguments) and m_j[d] (psi_c times K_j[e])
    assert {outer.arity for items in calls for _, outer, _, _ in items} == {1, 2}

series_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=2,
).map(Poly2)
series_inputs = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(series_polys, min_size=n, max_size=n), st.integers(n, 4)))

@given(series_inputs)
@settings(max_examples=25, deadline=None)
def test_top_coefficient_reaches_h_to_the_n_only_through_k1(case):
    # the identity the one pass rests on, at every order n <= N: orders below
    # n do not see psi_(n-1), and order n of quantize_series(psi, N) is order
    # n of quantize_series(psi[:n-1], N) + psi_(n-1) dx (x) dy
    psi, N = case
    for n in range(1, len(psi) + 1):
        q, m = quantize_series(psi[:n - 1], N), quantize_series(psi[:n], N)
        assert all(m.order_op(i) == q.order_op(i) for i in range(1, n))
        assert m.order_op(n) == q.order_op(n) + BiDiffOp({((1, 0), (0, 1)): psi[n - 1]})

@given(series_inputs, st.data())
@settings(max_examples=25, deadline=None)
def test_classify_inverts_quantize_series_on_every_order(case, data):
    # classify_p2 returns psi, and any pure-shape slot other than dx (x) dy
    # added at any order leaves the image
    psi, N = case
    m = quantize_series(psi, N)
    assert classify_p2(m) == PoissonSeries(len(psi) - 1, psi)
    n = data.draw(st.integers(1, N))
    a, b = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda s: s != (1, 1)))
    bump = data.draw(series_polys.filter(bool))
    tweaked = {**m.orders, n: m.order_op(n) + BiDiffOp({((a, 0), (0, b)): bump})}
    with pytest.raises(NotInImage):
        classify_p2(StarProduct(N, tweaked))

def test_skew_evaluation_leads_with_phi():
    phi = 2 * X + 5
    p = extract_poisson_p3(quantize(phi, 3))
    assert p.coeffs[0] == phi

@given(st.fractions(min_value=-6, max_value=6, max_denominator=4),
       st.fractions(min_value=-6, max_value=6, max_denominator=4))
@settings(max_examples=10, deadline=None)
def test_linear_phi_associativity_property(a, b):
    phi = Poly2({(1, 0): a, (0, 1): b})
    m = quantize(phi, 3)
    assert is_associative(m)
    for k in range(2, 4):
        _, res = oracle_solve_order(phi, [m.ktables[i] for i in range(1, k)], k)
        assert res.kernel_dim == 0
