"""Recursive-descent parser for polynomial expressions in x and y.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := '-'? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := primary ('^' uint)*
    primary  := rational | 'x' | 'y' | '(' expr ')'
    rational := int ('/' uint)?

The optional leading '-' lets the canonical printer's output ("-x + y")
round-trip; everywhere else a sign must be part of a rational literal.
A token is a (kind, text, offset) tuple, offset its index in the input; a
line and column are computed from the offset only when a ParseError is
raised (only '\\n' ends a line, and every other character is one column).
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import ParseError, UsageError
from .poly import Poly2


def _error(text: str, offset: int, message: str, expected) -> ParseError:
    """The ParseError at text[offset]: line 1 + the '\\n's before it, column from the last."""
    line = 1 + text.count("\n", 0, offset)
    return ParseError(message, line, offset - text.rfind("\n", 0, offset), expected=expected)


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], i))
        elif ch in "xy+-*/^()":
            toks.append((ch, ch, i))
        elif not ch.isspace():
            raise _error(text, i, f"unexpected character {ch!r}",
                         ("digit", "x", "y", "operator", "parenthesis"))
        i = j
    toks.append(("eof", "end of input", n))  # the text _fail names it by
    return toks


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits() digits; Decimal has no limit
        return int(Decimal(text))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.toks[self.pos][0]

    def take(self, kind: str) -> str:
        """The text of the next token, which must be of this kind."""
        if self.peek() != kind:
            self._fail((kind,))
        self.pos += 1
        return self.toks[self.pos - 1][1]

    def _fail(self, expected):
        _, got, offset = self.toks[self.pos]
        raise _error(self.text, offset, f"unexpected {got!r}", tuple(expected))

    def parse(self) -> Poly2:
        p = self.expr()
        if self.peek() != "eof":
            self._fail(("+", "-", "*", "^", "end of input"))
        return p

    def expr(self) -> Poly2:
        neg = False
        if self.peek() == "-":
            self.pos += 1
            neg = True
        p = self.term()
        if neg:
            p = -p
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly2:
        p = self.factor()
        while self.peek() == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def factor(self) -> Poly2:
        p = self.primary()
        while self.peek() == "^":
            self.pos += 1
            p = p ** _int(self.take("int"))
        return p

    def primary(self) -> Poly2:
        kind = self.peek()
        if kind == "x":
            self.pos += 1
            return Poly2.monomial(1, 0)
        if kind == "y":
            self.pos += 1
            return Poly2.monomial(0, 1)
        if kind == "(":
            self.pos += 1
            p = self.expr()
            self.take(")")
            return p
        if kind in ("int", "-"):
            return Poly2.const(self.rational())
        self._fail(("rational", "x", "y", "("))

    def rational(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        num = _int(self.take("int"))
        if self.peek() == "/":
            self.pos += 1
            den = _int(self.take("int"))
            if den == 0:
                raise _error(self.text, self.toks[self.pos - 1][2], "zero denominator",
                             ("nonzero uint",))
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def parse_poly(text: str) -> Poly2:
    if not isinstance(text, str):
        raise UsageError(f"parse_poly text must be a str, got {text!r}")
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:  # each '(' costs four frames of the descent
        raise _error(text, parser.toks[parser.pos][2], "expression nested too deeply",
                     ()) from None
