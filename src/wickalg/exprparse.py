"""Concrete syntax for algebra polynomials.

Grammar (EBNF)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor+
    factor := scalar | atom | '(' expr ')'
    atom   := 'a' INT ['*']
    scalar := RAT | RAT? 'i' | '(' RAT (('+'|'-') RAT 'i')? ')'
    RAT    := INT ['/' INT]

Whitespace separates factors; juxtaposition is multiplication; the ``*``
suffix on a generator is the involution.  Parentheses nest at most
``MAX_DEPTH`` deep, so the recursive descent stays within Python's recursion
limit.  The printer emits a canonical form that re-parses to the identical
polynomial.
"""

from __future__ import annotations

from .algebra import Polynomial, word_str
from .scalars import Scalar, rational, rational_str

__all__ = ["ParseError", "parse_expression", "print_polynomial"]

MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "a" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            star = j < n and text[j] == "*"
            tokens.append(("atom", int(text[i + 1:j]), star, i))
            i = j + (1 if star else 0)
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j]), None, i))
            i = j
            continue
        if ch == "i":
            tokens.append(("i", None, None, i))
            i += 1
            continue
        if ch in "+-/()":
            tokens.append((ch, None, None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, None, n))
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
            raise ParseError(f"expected {kind!r}, found {t[0]!r}", t[3])
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
        while self.peek()[0] in ("num", "i", "atom", "("):
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> Polynomial:
        kind, val, star, pos = self.peek()
        if kind == "atom":
            self.next()
            if not (1 <= val <= self.d):
                raise ParseError(f"generator index {val} out of range 1..{self.d}", pos)
            return Polynomial.monomial((-val,) if star else (val,))
        if kind in ("num", "i"):
            return Polynomial.monomial((), self.parse_scalar())
        if kind == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.next()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ParseError(f"expected a factor, found {kind!r}", pos)

    def parse_rat(self):
        num = self.expect("num")[1]
        if self.peek()[0] != "/":
            return rational(num)
        self.next()
        den = self.expect("num")
        if den[1] == 0:
            raise ParseError("division by zero", den[3])
        return rational(num, den[1])

    def parse_scalar(self) -> Scalar:
        if self.peek()[0] == "i":
            self.next()
            return Scalar(0, 1)
        value = self.parse_rat()
        if self.peek()[0] == "i":
            self.next()
            return Scalar(0, value)
        return Scalar(value)


def parse_expression(text: str, d: int) -> Polynomial:
    """Parse an expression string into an exact Polynomial."""
    p = _Parser(_tokenize(text), d)
    result = p.parse_expr()
    end = p.next()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[0]!r}", end[3])
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
