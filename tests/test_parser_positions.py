"""Where a ParseError points: only '\\n' ends a line, every other character is a column."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starplane.errors import ParseError, UsageError
from starplane.parser import parse_poly

SPACE = st.text(alphabet=" \t\r\x0b\n", max_size=3)
VALID = st.sampled_from(["x", "y", "+", "-", "*", "/", "^", "(", ")", "0", "7", "12", "3/4"])
ILLEGAL = st.sampled_from(["@", "é", "²", "#", "z", "."])

atoms = st.sampled_from(["x", "y", "0", "7", "12", "3/4", "-2"]).map(lambda a: [a])
exprs = st.recursive(atoms, lambda e: st.one_of(
    st.tuples(e, st.sampled_from(["+", "-", "*"]), e).map(lambda t: t[0] + [t[1]] + t[2]),
    e.map(lambda t: ["("] + t + [")"]),
    st.tuples(e, st.sampled_from(["2", "3"])).map(lambda t: ["("] + t[0] + [")", "^", t[1]]),
), max_leaves=8)


def position(text: str, offset: int) -> tuple:
    """(line, column) of text[offset], both from 1."""
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


def joined(data, tokens) -> str:
    return "".join(data.draw(SPACE) + t for t in tokens) + data.draw(SPACE)


@given(st.data(), st.lists(VALID, max_size=12), ILLEGAL)
@settings(max_examples=300, deadline=None)
def test_an_illegal_character_is_reported_where_it_stands(data, tokens, bad):
    # the whole text is tokenized before any of it is parsed, so the illegal
    # character is the error even where the tokens around it make no expression
    text = joined(data, tokens)
    offset = data.draw(st.integers(0, len(text)))
    text = text[:offset] + bad + text[offset:]
    with pytest.raises(ParseError) as e:
        parse_poly(text)
    assert (e.value.line, e.value.col) == position(text, offset)
    assert f"unexpected character {bad!r}" in str(e.value)
    assert e.value.expected == ("digit", "x", "y", "operator", "parenthesis")


@given(st.data(), exprs, st.lists(VALID, max_size=6))
@settings(max_examples=300, deadline=None)
def test_a_close_paren_after_a_complete_expression_is_reported_where_it_stands(data, expr, tail):
    head = joined(data, expr)
    parse_poly(head)  # a complete expression on its own
    text = head + ")" + joined(data, tail)
    with pytest.raises(ParseError) as e:
        parse_poly(text)
    assert (e.value.line, e.value.col) == position(text, len(head))
    assert "unexpected ')'" in str(e.value)
    assert e.value.expected == ("+", "-", "*", "^", "end of input")


@pytest.mark.parametrize("text", [5, None, b"x", ["x"]])
def test_text_that_is_not_a_str_is_refused(text):
    with pytest.raises(UsageError, match=re.escape(f"parse_poly text must be a str, got {text!r}")):
        parse_poly(text)
