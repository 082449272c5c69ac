"""Independent oracles used only by the tests.

These deliberately share no code with the package internals: the rank
oracle is a plain textbook row echelon (first nonzero pivot, row
operations only) over pairs of ``Fraction``s, not over the package's
Gaussian rationals, the characteristic polynomial oracle expands
det(zI - M) by cofactors over the same pairs, the winding oracle
integrates the argument of a symbol around the unit circle by sampling,
the section oracle reads a banded operator entry by entry into a
dense matrix, and the analytic pair oracle evaluates polynomials at
rational roots over ``Fraction``.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from koszulkit.linalg import Mat


def pair_mul(x, y):
    """Product of Gaussian rationals held as (re, im) pairs of Fractions."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_div(x, y):
    """Quotient of (re, im) Fraction pairs; y must be nonzero."""
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def oracle_rank(M: Mat) -> int:
    """Row-echelon rank over (re, im) Fraction pairs, first-nonzero pivoting."""
    rows = [[(M.at(i, j).re, M.at(i, j).im) for j in range(M.cols)] for i in range(M.rows)]
    r = 0
    col = 0
    while r < len(rows) and col < M.cols:
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != (0, 0):
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [pair_div(v, pv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != (0, 0):
                f = rows[i][col]
                fb = [pair_mul(f, b) for b in rows[r]]
                rows[i] = [(a[0] - c[0], a[1] - c[1]) for a, c in zip(rows[i], fb)]
        r += 1
        col += 1
    return r


def oracle_kernel_dim(M: Mat) -> int:
    return M.cols - oracle_rank(M)


def oracle_winding(symbol: dict, samples: int = 4096) -> int:
    """Winding number of z -> sum_k c_k z^k around the origin."""
    total = 0.0
    prev = None
    for k in range(samples + 1):
        theta = 2.0 * math.pi * k / samples
        z = cmath.exp(1j * theta)
        val = sum(c.to_complex() * z**e for e, c in symbol.items())
        ang = cmath.phase(val)
        if prev is not None:
            d = ang - prev
            while d > math.pi:
                d -= 2.0 * math.pi
            while d < -math.pi:
                d += 2.0 * math.pi
            total += d
        prev = ang
    return round(total / (2.0 * math.pi))


def oracle_analytic_pair(f_roots, g):
    """(index, r, verdict) of T = f(S*) and K = g(S*), S* the backward
    shift, f = prod (z - lam) over the rational ``f_roots`` (repeated for
    multiplicity) and g given by its coefficients, lowest degree first.

    ker T^n is spanned by the vectors (k^j lam^k)_k over the roots lam in
    the open unit disc, and K acts on the stabilized layer with the
    eigenvalues g(lam).  So the index is the number of those roots with
    multiplicity, r is the largest |g(lam)| over them, and the verdict is
    "obstructed" exactly when one of them is not a root of g; all exact.
    """
    inside = [Fraction(lam) for lam in f_roots if abs(Fraction(lam)) < 1]
    values = [abs(sum(c * lam**k for k, c in enumerate(g))) for lam in inside]
    verdict = "obstructed" if any(values) else "inconclusive"
    return len(inside), max(values, default=Fraction(0)), verdict


def oracle_section_kernel(T, N: int, G: int) -> np.ndarray:
    """Orthonormal basis (columns, first N - G coordinates) of the kernel
    vectors of the (N + w) x N section of the banded T, w its bandwidth,
    that vanish on the guard band, the last G of the N coordinates.

    The section is read entry by entry through ``T.entry``; its null
    space is numpy's SVD by a rank cut at 1e-10 of the largest singular
    value, and the combinations of it that vanish on the guard band are
    those the SVD of its guard rows sends to zero (below 1e-12).
    """
    w = T.bandwidth
    A = np.zeros((N + w, N), dtype=complex)
    for i in range(N + w):
        for j in range(max(i - w, 0), min(i + w + 1, N)):
            A[i, j] = T.entry(i, j).to_complex()
    _, s, vh = np.linalg.svd(A)
    null = vh[int(np.sum(s > 1e-10 * s[0])) :].conj().T if s[0] else np.eye(N)
    _, gs, gvh = np.linalg.svd(null[N - G :, :])
    vecs = null @ gvh[int(np.sum(gs > 1e-12)) :].conj().T
    return np.linalg.qr(vecs[: N - G, :])[0]


def oracle_charpoly(M: Mat) -> list:
    """det(zI - M) as (re, im) Fraction pairs, highest degree first, by
    cofactor expansion along the first row of zI - M, whose entries are
    polynomials in z (lists of pairs, lowest degree first)."""
    zero = (Fraction(0), Fraction(0))

    def padd(p, q):
        n = max(len(p), len(q))
        p, q = p + [zero] * (n - len(p)), q + [zero] * (n - len(q))
        return [(a[0] + b[0], a[1] + b[1]) for a, b in zip(p, q)]

    def pmul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                c = pair_mul(a, b)
                out[i + j] = (out[i + j][0] + c[0], out[i + j][1] + c[1])
        return out

    def det(rows):
        if not rows:
            return [(Fraction(1), Fraction(0))]
        total = [zero]
        for j, entry in enumerate(rows[0]):
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = pmul(entry, det(minor))
            if j % 2:
                term = [(-a, -b) for a, b in term]
            total = padd(total, term)
        return total

    n = M.rows
    rows = [
        [
            [(-M.at(i, j).re, -M.at(i, j).im)] + ([(Fraction(1), Fraction(0))] if i == j else [])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det(rows)[: n + 1][::-1]
