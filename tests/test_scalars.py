"""Exact scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given

from conftest import nonzero_scalars, rationals, scalars
from wickalg import Scalar, rational, rational_str
from wickalg.scalars import ONE, Q, ZERO


def test_construction_and_equality():
    assert Scalar(1) == 1
    assert Scalar(rational(1, 2)) == Scalar(rational(2, 4))
    assert Scalar(0, 1) != Scalar(1, 0)
    assert not Scalar(0).im and not Scalar(0).re
    assert ZERO.is_zero and not ONE.is_zero


def test_float_rejected():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 0.5)


def test_parts_stay_exact_after_mixed_arithmetic():
    for x in (Scalar(3) + 2, 2 * Scalar(1, 2) - 1, 1 - Scalar(rational(1, 3)),
              Scalar(0, 1) * 3 / 2, Scalar(2) ** 3, -Scalar(1, -1)):
        assert type(x.re) is Q and type(x.im) is Q


def test_decimal_strings_are_exact():
    assert rational("0.1") == Fraction(1, 10)
    assert rational(" -2.50 ") == rational(-5, 2)
    assert rational("1e5") == 100000
    assert rational("0.5") == Fraction(1, 2)
    assert rational("-2.5e-3") == Fraction(-1, 400)


@pytest.mark.parametrize("text", ["1e10000000", "1E-10000000", " 2.5e+4301 "])
def test_decimal_exponent_past_the_digit_limit_refused(text):
    # refused before 10**exp is computed, as int() refuses too many digits
    with pytest.raises(ValueError, match="exponent"):
        rational(text)


@given(rationals)
def test_rational_string_round_trip(q):
    assert rational(rational_str(q)) == q


def test_exact_arithmetic_examples():
    half = Scalar(rational(1, 2))
    third = Scalar(rational(1, 3))
    assert half + third == Scalar(rational(5, 6))
    assert half * third == Scalar(rational(1, 6))
    assert half - half == ZERO
    assert half / third == Scalar(rational(3, 2))
    i = Scalar(0, 1)
    assert i * i == Scalar(-1)
    assert (ONE + i) * (ONE - i) == Scalar(2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_pow():
    half = Scalar(rational(1, 2))
    assert half**0 == ONE
    assert half**6 == Scalar(rational(1, 64))
    assert half**-2 == Scalar(4)
    i = Scalar(0, 1)
    assert i**4 == ONE and i**3 == Scalar(0, -1)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO


@given(scalars, scalars)
def test_conjugation(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a
    assert a.abs2() == (a * a.conjugate()).re


@given(scalars, nonzero_scalars)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a
    assert (a * b) / b == a


@given(scalars)
def test_complex_view(a):
    z = a.to_complex()
    assert abs(z.real - float(Fraction(int(a.re.numerator), int(a.re.denominator)))) < 1e-12
    assert abs(z.imag - float(Fraction(int(a.im.numerator), int(a.im.denominator)))) < 1e-12


@given(scalars, scalars)
def test_hash_consistent_with_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_hash_matches_int_for_integers():
    # Scalars with integral real part hash like the underlying rational, so
    # they can share dict keys with plain ints where equal.
    assert hash(Scalar(7)) == hash(Fraction(7))
