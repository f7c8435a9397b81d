"""Exact complex-rational scalars.

All algebraic data in this package is carried by :class:`Scalar`, an exact
complex number with rational real and imaginary parts.  Floating point only
appears in derived "views" used by the spectral routines.

The rational type ``Q`` is the standard library's ``fractions.Fraction``.
The parts ``re`` and ``im`` of every Scalar are canonical Fractions: lowest
terms, positive denominator, and zero as the one shared ``0/1``.  So two
Scalars are equal exactly when their numerators and denominators are, and a
real Scalar hashes like the equal ``Fraction`` and ``int``.  The arithmetic
operators run on the module-level integer kernels at the end of this module
(``_add``, ``_mul``, ``_neg``, ``_inv``), which keep that form without going
through ``Fraction.__new__`` or its operator dispatch.

This module is the one place that decides how a rational is built, read and
written: :func:`rational` is the only parser and :func:`rational_str` the only
formatter.  The text format is ``"p"`` or ``"p/q"``; decimals such as
``"0.5"`` are read exactly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

Q = Fraction
# There is no gmpy2 path; kept because benchmark reports read it.
HAVE_GMPY2 = False

__all__ = ["Q", "Scalar", "ZERO", "ONE", "rational", "rational_str", "HAVE_GMPY2"]

_Q0 = Q(0)
_new = object.__new__
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def rational(value, den=None):
    """Coerce ``value`` to the exact rational type ``Q``.

    Accepts int, Fraction, or a string ``"p"``, ``"p/q"`` or decimal
    ``"-2.5e-3"`` (surrounding spaces allowed), never going through a float.
    ``rational(p, q)`` builds p/q.  A float raises ``TypeError``, an exponent
    beyond ``sys.get_int_max_str_digits()`` in magnitude ``ValueError``."""
    if den is not None:
        return rational(value) / rational(den)
    if isinstance(value, float):
        raise TypeError("refusing to build an exact rational from a float")
    if isinstance(value, str):
        exp = _EXPONENT.search(value)  # Q would compute 10**exp
        limit = sys.get_int_max_str_digits()
        if exp and limit and abs(int(exp.group(1))) > limit:
            raise ValueError(f"decimal exponent beyond ±{limit}")
    return Q(value)


def rational_str(q) -> str:
    """Exact text ``"p/q"`` (or ``"p"`` when integral) that :func:`rational`
    reads back to ``q``."""
    return str(q)


class Scalar:
    """An exact complex rational ``re + im*i``.

    Immutable by convention; all arithmetic returns new instances.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=_Q0, im=_Q0):
        re = re if type(re) is Q else rational(re)
        im = im if type(im) is Q else rational(im)
        self.re = re if re._numerator else _Q0
        self.im = im if im._numerator else _Q0

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        s = _new(Scalar)
        s.re = _add(self.re, other.re)
        s.im = _add(self.im, other.im) if self.im._numerator or other.im._numerator else _Q0
        return s

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        return _scalar(_add(self.re, _neg(other.re)), _add(self.im, _neg(other.im)))

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return _scalar(_neg(self.re), _neg(self.im))

    def __mul__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:  # the scaled integers of the rewrite memo
                return _scalar(_scale(self.re, other), _scale(self.im, other))
            other = Scalar.coerce(other)
        s = _new(Scalar)
        # Fast path: real times real (the overwhelmingly common case).
        if not self.im._numerator and not other.im._numerator:
            s.re = _mul(self.re, other.re)
            s.im = _Q0
        else:
            a, b, c, d = self.re, self.im, other.re, other.im
            s.re = _add(_mul(a, c), _neg(_mul(b, d)))
            s.im = _add(_mul(a, d), _mul(b, c))
        return s

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        if not other:
            raise ZeroDivisionError("division of Scalar by zero")
        if other.im._numerator:  # z/w = z·conj(w)/|w|²
            return self * other.conjugate() * _scalar(_inv(other.abs2()), _Q0)
        return self * _scalar(_inv(other.re), _Q0)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return ONE / self**(-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -------------------------------------------------------------
    def conjugate(self) -> "Scalar":
        return _scalar(self.re, _neg(self.im))

    def abs2(self):
        """|z|^2 as an exact rational."""
        return _add(_mul(self.re, self.re), _mul(self.im, self.im))

    @property
    def is_zero(self) -> bool:
        return not self.re._numerator and not self.im._numerator

    @property
    def is_real(self) -> bool:
        return not self.im._numerator

    # -- comparisons / hashing ---------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Scalar):  # canonical parts: equal iff equal ints
            a, b, c, d = self.re, self.im, other.re, other.im
            return (a._numerator == c._numerator and a._denominator == c._denominator
                    and b._numerator == d._numerator and b._denominator == d._denominator)
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im._numerator
        return NotImplemented

    def __hash__(self):
        if not self.im._numerator:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re._numerator != 0 or self.im._numerator != 0

    # -- views -----------------------------------------------------------------
    def to_complex(self) -> complex:
        re, im = self.re, self.im  # int / int rounds as float(Fraction) does
        return complex(re._numerator / re._denominator, im._numerator / im._denominator)

    def __repr__(self):
        if not self.im._numerator:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im})"


# -- integer kernels --------------------------------------------------------
# They read and write the two slots of a canonical ``Fraction`` directly and
# build their results without ``Fraction.__new__`` or its operator dispatch.
# Every result is canonical again: lowest terms, positive denominator, zero
# as the shared ``_Q0``.


def _q(n: int, d: int) -> Q:
    """The Fraction n/d from coprime ints with d > 0."""
    if not n:
        return _Q0
    q = _new(Q)
    q._numerator = n
    q._denominator = d
    return q


def _neg(a: Q) -> Q:
    n = a._numerator
    return _q(-n, a._denominator) if n else _Q0


def _inv(a: Q) -> Q:
    """1/a for a nonzero a."""
    n = a._numerator
    return _q(a._denominator, n) if n > 0 else _q(-a._denominator, -n)


def _mul(a: Q, b: Q) -> Q:
    """a·b, with the cross reductions of ``Fraction._mul``."""
    na = a._numerator
    nb = b._numerator
    if not na or not nb:
        return _Q0
    da = a._denominator
    db = b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, da * db)


def _scale(a: Q, n: int) -> Q:
    """a·n for an int n."""
    na = a._numerator
    if not na or not n:
        return _Q0
    da = a._denominator
    g = gcd(n, da)
    return _q(na * (n // g), da // g) if g > 1 else _q(na * n, da)


def _add(a: Q, b: Q) -> Q:
    """a + b, with the reductions of ``Fraction._add``."""
    nb = b._numerator
    if not nb:
        return a
    na = a._numerator
    if not na:
        return b
    da = a._denominator
    db = b._denominator
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _ratio(n: int, d: int) -> Q:
    """The Fraction n/d in lowest terms from ints with d > 0."""
    g = gcd(n, d)
    return _q(n // g, d // g) if g > 1 else _q(n, d)


def _denominator(values) -> int:
    """The lcm of the denominators of the real and imaginary parts of
    ``values``, Scalars; 1 for none."""
    den = 1
    for c in values:
        for part in (c.re, c.im):
            d = part._denominator
            if den % d:
                den = den // gcd(den, d) * d
    return den


def _numerator(c: Scalar, den: int):
    """c·den for a multiple ``den`` of c's denominators: an int when c is
    real, else a Scalar with integer parts (a Gaussian integer)."""
    re = c.re._numerator * (den // c.re._denominator)
    if not c.im._numerator:
        return re
    return _scalar(_q(re, 1), _q(c.im._numerator * (den // c.im._denominator), 1))


def _content(g: int, values) -> int:
    """The gcd of the int g and the integer parts of ``values``, each an int or
    a Gaussian-integer Scalar as :func:`_numerator` makes them."""
    try:
        return gcd(g, *values)
    except TypeError:  # a Gaussian integer among them; the loop stops at 1
        pass
    for v in values:
        g = gcd(g, v) if type(v) is int else gcd(g, v.re._numerator, v.im._numerator)
        if g == 1:
            break
    return g


def _quotient(n, g: int):
    """n/g for an int or Gaussian-integer Scalar n that the int g divides."""
    if type(n) is int:
        return n // g
    return _scalar(_q(n.re._numerator // g, 1), _q(n.im._numerator // g, 1))


def _over(n, den: int) -> Scalar:
    """n/den as a Scalar, for an int or Gaussian-integer Scalar n and an
    int den > 0: the inverse of :func:`_numerator`."""
    if type(n) is int:
        return _scalar(_ratio(n, den), _Q0)
    return _scalar(_ratio(n.re._numerator, den), _ratio(n.im._numerator, den))


def _scalar(re: Q, im: Q) -> Scalar:
    """A Scalar from canonical parts, without ``Scalar.__init__``.
    ``__add__`` and ``__mul__``, the hottest paths, build theirs inline."""
    s = _new(Scalar)
    s.re = re
    s.im = im
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
