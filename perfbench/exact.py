"""Exact Gaussian-rational matrices for input generation and oracles.

A scalar is a pair ``(re, im)`` of ``Fraction``s and a matrix is a list
of row lists.  Nothing here imports koszulkit: the benchmark builds its
inputs and checks its answers without the code it measures.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def gr(re, im=0):
    return (Fraction(re), Fraction(im))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


def identity(d):
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


def mat_add(A, B):
    return [[add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[mul(c, a) for a in row] for row in A]


def mat_mul(A, B):
    cols = list(zip(*B))
    out = []
    for row in A:
        out_row = []
        for col in cols:
            s = ZERO
            for a, b in zip(row, col):
                if a != ZERO and b != ZERO:
                    s = add(s, mul(a, b))
            out_row.append(s)
        out.append(out_row)
    return out


def mat_poly(A, coeffs):
    """sum_k coeffs[k] * A^k for scalar coefficients."""
    d = len(A)
    out = [[ZERO] * d for _ in range(d)]
    power = identity(d)
    for k, c in enumerate(coeffs):
        if k:
            power = mat_mul(power, A)
        if c != ZERO:
            out = mat_add(out, mat_scale(power, c))
    return out


def mat_to_json(A) -> dict:
    return {
        "rows": len(A),
        "cols": len(A[0]) if A else 0,
        "entries": [[str(v[0]), str(v[1])] for row in A for v in row],
    }


def scalar_to_json(v) -> list:
    return [str(v[0]), str(v[1])]


# -- rank over Q(i), computed modulo a prime ---------------------------------

#: 2^61 - 31, the largest prime below 2^61 that is 1 mod 4, so that -1
#: has a square root and Z[i] maps homomorphically onto the field.
PRIME = 2305843009213693921
SQRT_MINUS_ONE = pow(7, (PRIME - 1) // 4, PRIME)
if SQRT_MINUS_ONE * SQRT_MINUS_ONE % PRIME != PRIME - 1:
    raise RuntimeError("7 is not a quartic non-residue modulo PRIME")


def _mod(a) -> int:
    re, im = a
    num = re.numerator * im.denominator + SQRT_MINUS_ONE * im.numerator * re.denominator
    return num * pow(re.denominator * im.denominator, -1, PRIME) % PRIME


def rank(A) -> int:
    """Textbook row-echelon rank (first nonzero pivot) over GF(PRIME).

    The reduction can only lower the rank over Q(i), and does so only
    when PRIME divides a nonzero minor, which for the small integers of
    the benchmark inputs has negligible probability.
    """
    rows = [[_mod(v) for v in row] for row in A]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, PRIME)
        prow = [v * inv % PRIME for v in rows[r]]
        rows[r] = prow
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], prow)]
        r += 1
    return r


# -- Koszul cohomology dimensions -------------------------------------------


def koszul_dims(mats) -> tuple:
    """dim H^p of the Koszul complex of commuting d x d matrices, p = 0..n.

    The differential sends e_w (x) v to sum_i e_i ^ e_w (x) T_i v; any
    sign convention gives an isomorphic complex, so the dimensions are
    those of every correct implementation.
    """
    n = len(mats)
    d = len(mats[0])
    forms = [list(combinations(range(n), p)) for p in range(n + 1)]
    ranks = []
    for p in range(n):
        dst = {w: k for k, w in enumerate(forms[p + 1])}
        D = [[ZERO] * (d * len(forms[p])) for _ in range(d * len(forms[p + 1]))]
        for c, w in enumerate(forms[p]):
            for i in range(n):
                if i in w:
                    continue
                sign = -1 if sum(1 for j in w if j < i) % 2 else 1
                r = dst[tuple(sorted(w + (i,)))]
                for a in range(d):
                    for b in range(d):
                        v = mats[i][a][b]
                        D[r * d + a][c * d + b] = v if sign == 1 else (-v[0], -v[1])
        ranks.append(rank(D))
    dims = []
    prev = 0
    for p in range(n + 1):
        cols = d * len(forms[p])
        rp = ranks[p] if p < n else 0
        dims.append(cols - rp - prev)
        prev = rp
    return tuple(dims)


# -- winding number of a Laurent polynomial symbol ---------------------------


def winding(symbol: dict, samples: int = 4096) -> int:
    """Winding number about 0 of z -> sum_k c_k z^k on the unit circle."""
    coeffs = {k: to_complex(c) for k, c in symbol.items()}
    total = 0.0
    prev = None
    for s in range(samples + 1):
        z = cmath.exp(2j * math.pi * s / samples)
        ang = cmath.phase(sum(c * z**k for k, c in coeffs.items()))
        if prev is not None:
            total += (ang - prev + math.pi) % (2 * math.pi) - math.pi
        prev = ang
    return round(total / (2 * math.pi))
