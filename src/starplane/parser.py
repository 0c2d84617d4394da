"""Recursive-descent parser for polynomial expressions in x and y.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := '-'? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := primary ('^' uint)*
    primary  := rational | 'x' | 'y' | '(' expr ')'
    rational := int ('/' uint)?

The optional leading '-' lets the canonical printer's output ("-x + y")
round-trip; everywhere else a sign must be part of a rational literal.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import ParseError
from .poly import Poly2


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "xy+-*/^()":
            kind = {"x": "x", "y": "y"}.get(ch, ch)
            toks.append(_Tok(kind, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col,
                         expected=("digit", "x", "y", "operator", "parenthesis"))
    toks.append(_Tok("eof", "", line, col))
    return toks


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits() digits; Decimal has no limit
        return int(Decimal(text))


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self, kind: str) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != kind:
            self._fail((kind,))
        self.pos += 1
        return t

    def _fail(self, expected):
        t = self.toks[self.pos]
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"unexpected {got!r}", t.line, t.col, expected=tuple(expected))

    def parse(self) -> Poly2:
        p = self.expr()
        if self.peek().kind != "eof":
            self._fail(("+", "-", "*", "^", "end of input"))
        return p

    def expr(self) -> Poly2:
        neg = False
        if self.peek().kind == "-":
            self.pos += 1
            neg = True
        p = self.term()
        if neg:
            p = -p
        while self.peek().kind in ("+", "-"):
            op = self.peek().kind
            self.pos += 1
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly2:
        p = self.factor()
        while self.peek().kind == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def factor(self) -> Poly2:
        p = self.primary()
        while self.peek().kind == "^":
            self.pos += 1
            e = self.take("int")
            p = p ** _int(e.text)
        return p

    def primary(self) -> Poly2:
        t = self.peek()
        if t.kind == "x":
            self.pos += 1
            return Poly2.monomial(1, 0)
        if t.kind == "y":
            self.pos += 1
            return Poly2.monomial(0, 1)
        if t.kind == "(":
            self.pos += 1
            p = self.expr()
            self.take(")")
            return p
        if t.kind in ("int", "-"):
            return Poly2.const(self.rational())
        self._fail(("rational", "x", "y", "("))

    def rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.pos += 1
            sign = -1
        num = _int(self.take("int").text)
        if self.peek().kind == "/":
            self.pos += 1
            den = _int(self.take("int").text)
            if den == 0:
                t = self.toks[self.pos - 1]
                raise ParseError("zero denominator", t.line, t.col, expected=("nonzero uint",))
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def parse_poly(text: str) -> Poly2:
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:  # each '(' costs four frames of the descent
        t = parser.peek()
        raise ParseError("expression nested too deeply", t.line, t.col, expected=()) from None
