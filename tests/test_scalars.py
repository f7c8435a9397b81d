"""Exact scalar arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nonzero_scalars, rationals, scalars
from wickalg import Scalar, rational, rational_str
from wickalg.scalars import _Q0, ONE, Q, ZERO, _denominator, _numerator, _over


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


# -- the integer kernel against plain Fraction arithmetic -----------------------

_BIG = 2**64
big_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(-_BIG, _BIG).filter(bool)),
)
big_scalars = st.one_of(
    st.builds(Scalar, big_rationals),  # real
    st.builds(Scalar, big_rationals, big_rationals),
    st.builds(Scalar, big_rationals, big_rationals.filter(bool)),  # not real
)


def _ref(x):
    return (Fraction(x.re), Fraction(x.im))


def _assert_canonical(x):
    for part in (x.re, x.im):
        assert type(part) is Q
        n, d = part.numerator, part.denominator
        assert d > 0 and gcd(n, d) == 1  # so zero is 0/1


@given(big_scalars, big_scalars)
def test_kernel_matches_fraction_reference(x, y):
    (a, b), (c, d) = _ref(x), _ref(y)
    expected = {
        "+": (a + c, b + d),
        "-": (a - c, b - d),
        "*": (a * c - b * d, a * d + b * c),
    }
    for op, z in (("+", x + y), ("-", x - y), ("*", x * y)):
        _assert_canonical(z)
        assert (z.re, z.im) == expected[op], op
    if y:
        q = x / y
        _assert_canonical(q)
        n2 = c * c + d * d
        assert _ref(q) == ((a * c + b * d) / n2, (b * c - a * d) / n2)
    _assert_canonical(-x)
    assert _ref(-x) == (-a, -b)
    assert bool(x) == (a != 0 or b != 0)
    assert x.is_zero == (not x) and x.is_real == (b == 0)
    assert (x == y) == ((a, b) == (c, d))


@given(big_scalars, st.integers(-_BIG, _BIG))
def test_kernel_with_int_operands(x, k):
    a, b = _ref(x)
    for z, expected in ((x + k, (a + k, b)), (k + x, (a + k, b)), (x - k, (a - k, b)),
                        (k - x, (k - a, -b)), (x * k, (a * k, b * k)), (k * x, (a * k, b * k))):
        _assert_canonical(z)
        assert _ref(z) == expected


@given(st.lists(big_scalars, max_size=4), st.integers(1, 30))
def test_integer_numerators_round_trip(xs, m):
    # Over any multiple of the lcm of their denominators, Scalars become
    # ints (real) or Gaussian integers and come back exactly and canonical.
    den = _denominator(xs)
    assert all(den % part.denominator == 0 for x in xs for part in (x.re, x.im))
    for x in xs:
        n = _numerator(x, den * m)
        if x.is_real:
            assert type(n) is int and n == x.re * den * m
        else:
            assert type(n) is Scalar and n == x * (den * m)
            assert n.re.denominator == n.im.denominator == 1
        z = _over(n, den * m)
        _assert_canonical(z)
        assert z == x


@given(big_scalars)
def test_sum_with_negation_is_zero(x):
    z = x + (-x)
    assert not z and z == ZERO
    assert z.re is _Q0 and z.im is _Q0  # zero parts are the shared zero
    _assert_canonical(z)
    _assert_canonical(x.conjugate())
    assert x.abs2() == _ref(x)[0] ** 2 + _ref(x)[1] ** 2


@given(big_rationals)
def test_real_hash_matches_fraction(q):
    assert hash(Scalar(q)) == hash(q)
    assert hash(Scalar(q) * ONE) == hash(q)
    if q.denominator == 1:
        assert hash(Scalar(q)) == hash(int(q))


def test_fraction_slots_the_kernel_relies_on():
    # scalars.py reads and writes these two slots to build a Fraction
    # without Fraction.__new__ (CPython 3.10-3.13).  If this fails, the
    # kernel has to be adapted to the new Fraction layout.
    assert Fraction.__slots__ == ("_numerator", "_denominator"), Fraction.__slots__
