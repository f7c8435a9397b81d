"""Concrete syntax for algebra polynomials.

Grammar (EBNF)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor+
    factor := SCALAR | ATOM | '(' expr ')'
    ATOM   := 'a' DIGITS ['*']
    SCALAR := DIGITS ['/' DIGITS] ['i'] | 'i'
    DIGITS := [0-9]+

ATOM and SCALAR are single tokens, read by one pattern: nothing may stand
inside them but whitespace around the ``/`` of a fraction, and digits are
ASCII.  A complex scalar is a parenthesised sum such as ``(1-2i)``.
Whitespace separates factors; juxtaposition is multiplication; the ``*``
suffix on a generator is the involution.  Parentheses nest at most
``MAX_DEPTH`` deep, so the recursive descent stays within Python's recursion
limit.  Every refusal is a :class:`ParseError` with the position it arose at.
The printer emits a canonical form that re-parses to the identical
polynomial."""

from __future__ import annotations

import re

from .algebra import Polynomial, word_str
from .scalars import Scalar, rational, rational_str

__all__ = ["ParseError", "parse_expression", "print_polynomial"]

MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?P<tok>a(?P<gen>[0-9]+)(?P<star>\*?)"
    r"|(?P<num>[0-9]+)(?:\s*/\s*(?P<den>[0-9]+))?(?P<im>i?)"
    r"|(?P<i>i)|(?P<op>[-+()])|(?:a(?=[^\x00-\x7f]))?(?P<bad>\S))"
)  # an "a" before a non-ASCII character is refused at that character


def _int(m, group: str) -> int:
    try:
        return int(m[group])
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"literal of {len(m[group])} digits is too long", m.start(group)) from None


def _tokenize(text: str) -> list:
    """Tokens (kind, value, pos): ("atom", N or −N for aN*, pos), ("scalar",
    Scalar, pos) for a whole literal, an operator, and ("end", None, len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):  # (?P<bad>\S) leaves only trailing space unmatched
        pos = m.start("tok")
        if m["gen"]:
            k = _int(m, "gen")
            tokens.append(("atom", -k if m["star"] else k, pos))
        elif m["num"]:
            value = _int(m, "num")
            if m["den"]:
                den = _int(m, "den")
                if not den:
                    raise ParseError("division by zero", m.start("den"))
                value = rational(value, den)
            tokens.append(("scalar", Scalar(0, value) if m["im"] else Scalar(value), pos))
        elif m["i"]:
            tokens.append(("scalar", Scalar(0, 1), pos))
        elif m["op"]:
            tokens.append((m["op"], None, pos))
        else:
            raise ParseError(f"unexpected character {m['bad']!r}", m.start("bad"))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list, d: int):
        self.toks = tokens
        self.pos = 0
        self.d = d
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[0]!r}", t[2])
        return t

    def parse_expr(self) -> Polynomial:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        acc = self.parse_term().scale(sign)
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term(self) -> Polynomial:
        acc = self.parse_factor()
        while self.peek()[0] in ("scalar", "atom", "("):
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "atom":
            if not (1 <= abs(val) <= self.d):
                raise ParseError(f"generator index {abs(val)} out of range 1..{self.d}", pos)
            return Polynomial.monomial((val,))
        if kind == "scalar":
            return Polynomial.monomial((), val)
        if kind == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ParseError(f"expected a factor, found {kind!r}", pos)


def parse_expression(text: str, d: int) -> Polynomial:
    """Parse an expression string into an exact Polynomial."""
    p = _Parser(_tokenize(text), d)
    result = p.parse_expr()
    end = p.next()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[0]!r}", end[2])
    return result


def _coeff_parts(c: Scalar, unit_word: bool):
    """(sign, magnitude-string) for one canonical term."""
    if not c.im:
        sign = "-" if c.re < 0 else "+"
        mag = rational_str(abs(c.re))
        if mag == "1" and not unit_word:
            mag = ""
        return sign, mag
    if not c.re:
        sign = "-" if c.im < 0 else "+"
        return sign, rational_str(abs(c.im)) + "i"
    im_sign = "-" if c.im < 0 else "+"
    body = f"{rational_str(c.re)}{im_sign}{rational_str(abs(c.im))}i"
    return "+", f"({body})"


def print_polynomial(p: Polynomial) -> str:
    """Canonical text form; parse_expression(print_polynomial(p), d) == p."""
    if p.is_zero:
        return "0"
    parts = []
    for w in sorted(p.terms, key=lambda w: (len(w), w)):
        c = p.terms[w]
        sign, mag = _coeff_parts(c, unit_word=(not w))
        body = " ".join(x for x in (mag, word_str(w) if w else "") if x)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
