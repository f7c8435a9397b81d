"""Exact complex-rational scalars.

All algebraic data in this package is carried by :class:`Scalar`, an exact
complex number with rational real and imaginary parts.  Floating point only
appears in derived "views" used by the spectral routines.

The rational type ``Q`` is the standard library's ``fractions.Fraction``.

This module is the one place that decides how a rational is built, read and
written: :func:`rational` is the only parser and :func:`rational_str` the only
formatter.  The text format is ``"p"`` or ``"p/q"``; decimals such as
``"0.5"`` are read exactly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

Q = Fraction
# There is no gmpy2 path; kept because benchmark reports read it.
HAVE_GMPY2 = False

__all__ = ["Q", "Scalar", "ZERO", "ONE", "rational", "rational_str", "HAVE_GMPY2"]

_Q0 = Q(0)
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
        self.re = re if type(re) is Q else rational(re)
        self.im = im if type(im) is Q else rational(im)

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = Scalar.coerce(other)
        # Fast path: real times real (the overwhelmingly common case).
        if not self.im and not other.im:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if not other.re and not other.im:
            raise ZeroDivisionError("division of Scalar by zero")
        if not other.im:
            return Scalar(self.re / other.re, self.im / other.re)
        denom = other.re * other.re + other.im * other.im
        return Scalar(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

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
        return Scalar(self.re, -self.im)

    def abs2(self):
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    # -- comparisons / hashing ---------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- views -----------------------------------------------------------------
    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im})"


ZERO = Scalar(0)
ONE = Scalar(1)
