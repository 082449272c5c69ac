"""Scalar arithmetic: exact Gaussian rationals and complex floats.

Exact scalars are pairs of arbitrary-precision ``Fraction``s (real and
imaginary part); arithmetic on them never rounds.  Float scalars are
plain ``complex``.  Every matrix and operator carries one arithmetic
mode; mixing modes raises :class:`~koszulkit.errors.ModeMismatch` at the
point of use.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ModeMismatch

EXACT = "exact"
FLOAT = "float"


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # decimal-faithful: 0.5 -> 1/2, 0.1 -> 1/10
        return Fraction(str(x))
    raise TypeError(f"cannot build an exact rational from {x!r}")


class GaussianRational:
    """a + b*i with exact rational a and b.  Immutable, hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, complex):
            raise ModeMismatch("cannot mix complex floats into exact arithmetic")
        return GaussianRational(_frac(x))

    def __add__(self, other):
        o = self._coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if not (self.im or o.im):
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def magnitude(self) -> float:
        return math.sqrt(float(self.abs2()))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ModeMismatch):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def as_scalar(value, mode: str):
    """Coerce a Python value into the scalar type of ``mode``."""
    if mode == EXACT:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, complex):
            raise ModeMismatch("complex float given where an exact scalar is required")
        return GaussianRational(_frac(value))
    if mode == FLOAT:
        if isinstance(value, GaussianRational):
            return value.to_complex()
        return complex(value)
    raise ValueError(f"unknown arithmetic mode {mode!r}")
