"""Scalar arithmetic: exact Gaussian rationals and complex floats.

An exact scalar (a + b*i)/d is held as three Python integers (a, b, d)
in normal form: d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1) and
equal values have equal triples.  Each result is normalised by one
three-way gcd, sums over a shared denominator skip the cross products,
and no arithmetic builds a ``Fraction``; arithmetic never rounds.
Integer and "p/q" strings are read straight into the triple, any other
string through ``Fraction(str)``, so the accepted inputs are exactly
``Fraction``'s, except that a decimal exponent larger in magnitude than
``sys.get_int_max_str_digits()`` is refused instead of expanded.  Float
scalars are plain ``complex``.  Every matrix and operator carries one
arithmetic mode; mixing modes raises
:class:`~koszulkit.errors.ModeMismatch` at the point of use.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, inf, ldexp, sqrt
from sys import get_int_max_str_digits, hash_info

from .errors import ModeMismatch

EXACT = "exact"
FLOAT = "float"


def sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) for ints p >= 0 and q > 0 as sqrt(float(p / q)) gives
    it, but inf past the float range: it is taken as 2^e sqrt(p / (q 4^e)),
    whose int / int (correctly rounded) lies in [1/2, 4)."""
    e = (p.bit_length() - q.bit_length()) // 2
    r = sqrt((p << max(-2 * e, 0)) / (q << max(2 * e, 0)))
    try:
        return ldexp(r, e)
    except OverflowError:
        return inf


#: the strings read without ``Fraction``: an ASCII integer or "p/q"
_RATIO = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")

#: the decimal exponent of a string ``Fraction`` would read
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _ratio(x) -> tuple:
    """x as integers (p, q) with value p/q and q > 0, not reduced."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        m = _RATIO.fullmatch(x)
        if m:
            q = int(m[2] or 1)
            if q:
                return int(m[1]), q
        e = _EXPONENT.search(x)
        if e and 0 < get_int_max_str_digits() < abs(int(e[1])):
            # Fraction would build 10**|exponent|: seconds per million digits
            raise ValueError(f"decimal exponent {e[1]} is too large")
        x = Fraction(x)  # raises on "p/0" as before
    elif isinstance(x, float):
        # decimal-faithful: 0.5 -> 1/2, 0.1 -> 1/10
        x = Fraction(str(x))
    elif not isinstance(x, Fraction):
        raise TypeError(f"cannot build an exact rational from {x!r}")
    return x.numerator, x.denominator


_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d for d > 0, brought to normal form."""
    g = gcd(a, b, d)
    z = _new(GaussianRational)
    if g == 1:
        z.a, z.b, z.d = a, b, d
    else:
        z.a, z.b, z.d = a // g, b // g, d // g
    return z


def _coerce(x) -> "GaussianRational":
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, complex):
        raise ModeMismatch("complex float given where an exact scalar is required")
    return GaussianRational(x)


class GaussianRational:
    """(a + b*i)/d with integers d > 0 and gcd(a, b, d) = 1.  Immutable,
    hashable.  ``re`` and ``im`` give the parts as ``Fraction``s."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        if q != s:
            p, r, q = p * s, r * q, q * s
        g = gcd(p, r, q)
        self.a, self.b, self.d = p // g, r // g, q // g

    @classmethod
    def from_ints(cls, a: int, b: int, d: int) -> "GaussianRational":
        """(a + b*i)/d for integers a, b and d > 0, brought to normal form
        by one gcd; nothing is parsed."""
        if d <= 0:
            raise ValueError(f"denominator {d} is not positive")
        return _make(a, b, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        o = other if isinstance(other, GaussianRational) else _coerce(other)
        d, f = self.d, o.d
        if d == f:
            return _make(self.a + o.a, self.b + o.b, d)
        return _make(self.a * f + o.a * d, self.b * f + o.b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, GaussianRational) else _coerce(other)
        d, f = self.d, o.d
        if d == f:
            return _make(self.a - o.a, self.b - o.b, d)
        return _make(self.a * f - o.a * d, self.b * f - o.b * d, d * f)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        o = other if isinstance(other, GaussianRational) else _coerce(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        if not (b or e):
            return _make(a * c, 0, self.d * o.d)
        return _make(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, GaussianRational) else _coerce(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        f = o.d
        return _make(f * (a * c + b * e), f * (b * c - a * e), self.d * n)

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def magnitude(self) -> float:
        return sqrt_ratio(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            try:
                other = _coerce(other)
            except (TypeError, ValueError, ZeroDivisionError, ModeMismatch):
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        # a real value hashes like the equal int, Fraction or float:
        # Python's rational hash, |a| / d modulo the hash prime
        try:
            h = hash(hash(abs(self.a)) * pow(self.d, -1, hash_info.modulus))
        except ValueError:  # d is a multiple of the modulus
            h = hash_info.inf
        h = h if self.a >= 0 else -h
        return -2 if h == -1 else h

    def to_complex(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        if not self.b:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def as_scalar(value, mode: str):
    """Coerce a Python value into the scalar type of ``mode``."""
    if mode == EXACT:
        return _coerce(value)
    if mode == FLOAT:
        if isinstance(value, GaussianRational):
            return value.to_complex()
        return complex(value)
    raise ValueError(f"unknown arithmetic mode {mode!r}")
