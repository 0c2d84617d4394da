"""Exact bivariate polynomial arithmetic."""

import re
from fractions import Fraction
from math import gcd, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_oracle import DegenerateMap, subs_affine
from starplane.errors import NotDivisible, UsageError
from starplane.poly import ONE, X, Y, Poly2, format_poly, grlex_key

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), rationals, max_size=6
).map(Poly2)


def test_zero_coefficients_never_stored():
    p = Poly2({(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == Poly2({(0, 1): Fraction(2)})


@pytest.mark.parametrize("make, exp", [
    (lambda: Poly2({(1.5, 0): 1}), (1.5, 0)),
    (lambda: Poly2.monomial(2.9, 1, 3), (2.9, 1)),
    (lambda: Poly2({(1, Fraction(2)): 1}), (1, Fraction(2))),
    (lambda: Poly2({(True, 0): 1}), (True, 0)),
    (lambda: Poly2({(0, -1): 1}), (0, -1)),
    (lambda: Poly2({(1.5, 0): 0}), (1.5, 0)),
], ids=["float", "monomial-float", "fraction", "bool", "negative", "float-zero-coefficient"])
def test_an_exponent_that_is_not_an_int_at_least_zero_is_refused(make, exp):
    with pytest.raises(UsageError, match=re.escape(f"Poly2 exponents must be integers >= 0, got {exp!r}")):
        make()


def test_basic_arithmetic():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + ONE
    assert X - X == Poly2.zero()


def test_scalar_coercion():
    assert X + 1 == Poly2({(1, 0): Fraction(1), (0, 0): Fraction(1)})
    assert 2 * X == X * 2
    assert ONE == 1


def test_power_makes_one_product_per_squaring_and_per_later_set_bit(monkeypatch):
    p = X + 2 * Y
    products = []
    mul = Poly2.__mul__
    monkeypatch.setattr(Poly2, "__mul__", lambda a, b: products.append(b) or mul(a, b))
    counts, powers = [], []
    for n in range(5):
        products.clear()
        powers.append(p ** n)
        counts.append(len(products))
    monkeypatch.undo()
    assert counts == [0, 0, 1, 2, 2]
    assert powers == [ONE, p, p * p, p * p * p, p * p * p * p]


def test_derivatives():
    p = X ** 3 * Y ** 2
    assert p.dx() == 3 * X ** 2 * Y ** 2
    assert p.dy(2) == 2 * X ** 3
    assert p.dx(4) == Poly2.zero()
    # falling factorial for higher derivatives
    assert (X ** 5).dx(3) == 60 * X ** 2


def test_exact_div():
    p = (X + Y) * (X * Y - 3)
    assert p.exact_div(X + Y) == X * Y - 3
    with pytest.raises(NotDivisible):
        (X * Y + 1).exact_div(X + Y)
    with pytest.raises(ZeroDivisionError):
        X.exact_div(Poly2.zero())


def test_subs_affine():
    p = X * Y
    assert subs_affine(p, 2, 1, -1, 0) == (2 * X + 1) * (-Y)
    with pytest.raises(DegenerateMap):
        subs_affine(p, 0, 1, 1, 0)


def test_subs_affine_composes():
    p = X ** 2 + Y
    q = subs_affine(subs_affine(p, 2, 0, 1, 3), Fraction(1, 2), 0, 1, -3)
    assert q == p


def test_sorted_terms_graded_lex():
    p = X ** 2 + Y ** 3 + X * Y
    keys = [k for k, _ in p.sorted_terms()]
    assert keys == sorted(keys, key=grlex_key, reverse=True)


def test_format_examples():
    assert format_poly(Fraction(3, 2) * X ** 2 * Y - Y ** 3) == "3/2*x^2*y - y^3"
    assert format_poly(Poly2.zero()) == "0"
    assert format_poly(-X) == "-x"


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_leibniz(p, q):
    assert (p * q).dx() == p.dx() * q + p * q.dx()
    assert (p * q).dy() == p.dy() * q + p * q.dy()


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_exact_div_roundtrip(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


def fraction_div(a, b):
    """Long division on {exp: Fraction} dicts; the quotient dict, or None if stuck."""
    lt = max(b, key=grlex_key)
    rem, quo = dict(a), {}
    while rem:
        r = max(rem, key=grlex_key)
        di, dj = r[0] - lt[0], r[1] - lt[1]
        if di < 0 or dj < 0:
            return None
        quo[di, dj] = qc = rem[r] / b[lt]
        for (i, j), c in b.items():
            k = (i + di, j + dj)
            rem[k] = rem.get(k, 0) - c * qc
            if not rem[k]:
                del rem[k]
    return quo


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_exact_div_matches_fraction_long_division(p, q, r):
    # p*q + r is divisible by q for r = 0 and for many small r, and not for most
    if q.is_zero():
        return
    for a in (p * q, p * q + r, p + r):
        want = fraction_div(a.terms, q.terms)
        if want is None:
            with pytest.raises(NotDivisible):
                a.exact_div(q)
        else:
            got = a.exact_div(q)
            assert_canonical(got)
            assert got.terms == {k: v for k, v in want.items() if v}
            assert got * q == a


@given(polys)
@settings(max_examples=100, deadline=None)
def test_hash_consistent_with_eq(p):
    assert hash(p) == hash(Poly2(dict(p.terms)))


# -- representation: integer numerators over one shared denominator ----------

big_ints = st.integers(-2 ** 64, 2 ** 64)
scalars = st.one_of(big_ints, rationals, st.builds(Fraction, big_ints, st.integers(1, 2 ** 64)))
raw_polys = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), scalars, max_size=6)


def assert_canonical(p):
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in num.values())
    assert gcd(den, *num.values()) == 1  # den == 1 for the zero polynomial


def ref(d):
    return {k: Fraction(v) for k, v in d.items() if v}


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return ref(out)


def ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return ref(out)


def ref_pow(a, n):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_dx(a, n):
    return ref({(i - n, j): c * perm(i, n) for (i, j), c in a.items() if i >= n})


def ref_dy(a, n):
    return ref({(i, j - n): c * perm(j, n) for (i, j), c in a.items() if j >= n})


@given(raw_polys, raw_polys, scalars, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_operations_stay_canonical_and_match_reference(da, db, c, n):
    p, q = Poly2(da), Poly2(db)
    a, b = ref(da), ref(db)
    cases = [
        (p, a), (q, b),
        (p + q, ref_add(a, b)), (p - q, ref_add(a, b, -1)), (-p, ref_add({}, a, -1)),
        (p * q, ref_mul(a, b)), (p ** n, ref_pow(a, n)),
        (p.dx(n), ref_dx(a, n)), (p.dy(n), ref_dy(a, n)),
        (p * c, ref({k: v * c for k, v in a.items()})), (c * p, ref({k: v * c for k, v in a.items()})),
        (p + c, ref_add(a, {(0, 0): c})), (c - p, ref_add({(0, 0): c}, a, -1)),
    ]
    if q:
        cases.append(((p * q).exact_div(q), a))
    for got, want in cases:
        assert_canonical(got)
        assert got.terms == want


@given(raw_polys)
@settings(max_examples=100, deadline=None)
def test_terms_is_a_fresh_fraction_view(d):
    p = Poly2(d)
    view = p.terms
    assert all(type(v) is Fraction for v in view.values())
    assert Poly2(view) == p and hash(Poly2(view)) == hash(p)
    view.clear()
    view[(7, 7)] = Fraction(1, 3)
    assert p.terms == ref(d)
