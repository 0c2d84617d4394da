"""Expression grammar and the canonical printer round trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starplane.errors import ParseError
from starplane.parser import parse_poly
from starplane.poly import X, Y, Poly2, format_poly

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=200)
polys = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), rationals, max_size=8
).map(Poly2)


def test_examples():
    assert parse_poly("3/2*x^2*y - y^3") == Poly2(
        {(2, 1): Fraction(3, 2), (0, 3): Fraction(-1)}
    )
    assert parse_poly("x*y") == X * Y
    assert parse_poly("0") == Poly2.zero()
    assert parse_poly("(x + y)^2") == (X + Y) ** 2
    assert parse_poly("-x") == -X
    assert parse_poly("2 - 3") == Poly2.const(-1)
    assert parse_poly("3*-2") == Poly2.const(-6)
    assert parse_poly("  x \n + y ") == X + Y


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("x y")
    with pytest.raises(ParseError):
        parse_poly("2x")


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("x +\n* y")
    assert e.value.line == 2 and e.value.col == 1

    with pytest.raises(ParseError) as e:
        parse_poly("x + ")
    assert e.value.col == 5

    with pytest.raises(ParseError) as e:
        parse_poly("x @ y")
    assert e.value.col == 3


def test_superscript_digit_is_a_parse_error():
    # '²' passes str.isdigit but not int(); it must not reach a conversion
    for text in ("x^²", "²"):
        with pytest.raises(ParseError) as e:
            parse_poly(text)
        assert "'²'" in str(e.value)


def test_integers_of_any_length():
    # 5,001 digits: past the interpreter's str <-> int limit, so the test spells
    # the digits out instead of calling str() or int()
    n = "1" + "0" * 4999 + "1"
    big = 10 ** 5000 + 1
    assert parse_poly(n).coeff(0, 0) == big
    assert parse_poly(f"{n}/3*x") == Fraction(big, 3) * X
    assert parse_poly(f"x^{n}") == Poly2.monomial(big, 0)
    assert format_poly(parse_poly(f"-{n}/7*y^{n}")) == f"-{n}/7*y^{n}"


def test_error_reports_expectations():
    with pytest.raises(ParseError) as e:
        parse_poly("(x + y")
    assert ")" in e.value.expected


def test_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("x + y)")


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_exponent_must_be_uint():
    with pytest.raises(ParseError):
        parse_poly("x^-2")
    with pytest.raises(ParseError):
        parse_poly("x^(2)")


def test_print_is_parseable_canonical_form():
    p = Fraction(3, 2) * X ** 2 * Y - Y ** 3
    assert format_poly(p) == "3/2*x^2*y - y^3"
    assert parse_poly(format_poly(p)) == p


@given(polys)
@settings(max_examples=1000, deadline=None)
def test_parse_print_round_trip(p):
    assert parse_poly(format_poly(p)) == p


@given(polys)
@settings(max_examples=200, deadline=None)
def test_print_parse_idempotent(p):
    text = format_poly(p)
    assert format_poly(parse_poly(text)) == text
