"""Expression grammar, canonical printing, and their round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polynomials
from wickalg import ParseError, Polynomial, Scalar, parse_expression, print_polynomial, rational
from wickalg.exprparse import MAX_DEPTH


def test_atoms_and_involution():
    assert parse_expression("a1", 2) == Polynomial.generator(1)
    assert parse_expression("a2*", 2) == Polynomial.adjoint_generator(2)
    assert parse_expression("a1 a2*", 2) == Polynomial.monomial((1, -2))


def test_scalars_and_signs():
    assert parse_expression("3/4", 1) == Polynomial.monomial((), rational(3, 4))
    assert parse_expression("i", 1) == Polynomial.monomial((), Scalar(0, 1))
    assert parse_expression("2i", 1) == Polynomial.monomial((), Scalar(0, 2))
    assert parse_expression("(1+2i)", 1) == Polynomial.monomial((), Scalar(1, 2))
    assert parse_expression("3 / 4 a1", 1) == Polynomial.monomial((1,), rational(3, 4))
    assert parse_expression("i2", 1) == Polynomial.monomial((), Scalar(0, 2))
    assert parse_expression("1/2i", 1) == Polynomial.monomial((), Scalar(0, rational(1, 2)))
    assert parse_expression("(1-1i) a1", 1) == Polynomial.monomial((1,), Scalar(1, -1))
    assert parse_expression("-a1", 1) == Polynomial.generator(1).scale(-1)
    got = parse_expression("a1* a1 - 1/2 a1 a1*", 1)
    assert got == Polynomial.monomial((-1, 1)) - Polynomial.monomial(
        (1, -1), rational(1, 2)
    )


def test_juxtaposition_and_parentheses():
    got = parse_expression("(a1 + a2)(a1 - a2)", 2)
    expect = (Polynomial.generator(1) + Polynomial.generator(2)) * (
        Polynomial.generator(1) - Polynomial.generator(2)
    )
    assert got == expect
    assert parse_expression("2 3 a1", 1) == Polynomial.monomial((1,), 6)
    assert parse_expression("2 3i a1", 1) == Polynomial.monomial((1,), Scalar(0, 6))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expression("a1 $", 2)
    with pytest.raises(ParseError):
        parse_expression("a3", 2)  # index out of range
    with pytest.raises(ParseError):
        parse_expression("1/0", 1)
    with pytest.raises(ParseError):
        parse_expression("a1 +", 1)
    with pytest.raises(ParseError):
        parse_expression("(a1", 1)
    with pytest.raises(ParseError):
        parse_expression("a1)", 1)
    err = None
    try:
        parse_expression("a1 ?", 1)
    except ParseError as exc:
        err = exc
    assert err is not None and err.pos == 3


@pytest.mark.parametrize("text, pos", [("a²", 1), ("2²", 1), ("a1* a٣", 5), ("a١", 1)])
def test_digits_are_ascii(text, pos):
    # int() reads "٣" as 3 and refuses "²"; the lexer takes neither as a digit.
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse_expression(text, 3)
    assert exc.value.pos == pos


def test_overlong_literal_is_a_parse_error():
    # past sys.get_int_max_str_digits() (4300 by default) int() raises ValueError
    with pytest.raises(ParseError, match="5000 digits is too long") as exc:
        parse_expression("a1 + " + "7" * 5000, 1)
    assert exc.value.pos == 5
    with pytest.raises(ParseError, match="too long"):
        parse_expression("a" + "1" * 5000, 1)
    with pytest.raises(ParseError, match="too long"):
        parse_expression("1/" + "3" * 5000, 1)


def test_print_examples():
    assert print_polynomial(Polynomial.zero()) == "0"
    assert print_polynomial(Polynomial.unit()) == "1"
    assert print_polynomial(Polynomial.generator(1)) == "a1"
    p = Polynomial.monomial((1, -2), rational(-1, 2)) + Polynomial.unit()
    assert print_polynomial(p) == "1 - 1/2 a1 a2*"
    p = Polynomial.monomial((1,), Scalar(1, -1))
    assert print_polynomial(p) == "(1-1i) a1"
    p = Polynomial.monomial((2,), Scalar(0, 1))
    assert print_polynomial(p) == "1i a2"


@settings(max_examples=150, deadline=None)
@given(polynomials(3, max_len=4, max_terms=5))
def test_print_parse_round_trip(p):
    assert parse_expression(print_polynomial(p), 3) == p


# Text near the grammar (its characters, digits Python's int() refuses, deep
# nesting) as well as arbitrary text.
_near_grammar = st.text(alphabet="a12*()+-/i 0²٣.e\t", max_size=40)
_nested = st.integers(0, 3 * MAX_DEPTH).map(lambda k: "(" * k + "a1" + ")" * k)
expression_texts = st.one_of(st.text(), _near_grammar, _nested)


@settings(max_examples=300, deadline=None)
@given(expression_texts, st.integers(1, 3))
def test_parser_fuzz_raises_only_parse_errors(text, d):
    try:
        parse_expression(text, d)
    except ParseError:
        pass


def test_nesting_depth_is_bounded():
    # Deep nesting used to exhaust the recursion limit (RecursionError).
    inner = "(" * MAX_DEPTH + "2 a1" + ")" * MAX_DEPTH
    assert parse_expression(inner, 1) == Polynomial.monomial((1,), 2)
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_expression("(" + inner + ")", 1)
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_expression("(" * 5000, 1)
