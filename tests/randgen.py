"""Seeded generators for random test objects.

Commuting tuples are produced by construction, never by rejection:
either as polynomials in one random matrix, or as conjugated diagonal
matrices (simultaneously diagonalizable, with known rational joint
eigenvalues).  The seed comes from the KOSZULKIT_SEED environment
variable when set, so property runs are reproducible.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from koszulkit.koszul import CommutingTuple, validate_tuple
from koszulkit.linalg import Mat, mat_power, solve
from koszulkit.polymap import Polynomial
from koszulkit.scalars import EXACT, GaussianRational

DEFAULT_SEED = 20260810


def get_rng(seed: int | None = None) -> random.Random:
    if seed is None:
        seed = int(os.environ.get("KOSZULKIT_SEED", DEFAULT_SEED))
    return random.Random(seed)


def random_exact_matrix(rng: random.Random, d: int, lo=-2, hi=2, complex_entries=False) -> Mat:
    rows = []
    for _ in range(d):
        row = []
        for _ in range(d):
            re = rng.randint(lo, hi)
            im = rng.randint(lo, hi) if complex_entries and rng.random() < 0.3 else 0
            row.append(GaussianRational(re, im))
        rows.append(row)
    return Mat.from_rows(rows, EXACT)


def random_poly_in(rng: random.Random, A: Mat, max_degree: int = 2) -> Mat:
    """Random polynomial in A with small integer coefficients."""
    d = A.rows
    out = Mat.zeros(d, d, EXACT)
    deg = rng.randint(0, max_degree)
    for k in range(deg + 1):
        c = rng.randint(-2, 2)
        if c:
            out = out + mat_power(A, k).scale(c)
    return out


def random_unimodular(rng: random.Random, d: int, shears: int = 6) -> Mat:
    """Random integer matrix with determinant +-1 (product of shears)."""
    P = Mat.identity(d, EXACT)
    for _ in range(shears):
        i = rng.randrange(d)
        j = rng.randrange(d)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        if c == 0:
            continue
        E = Mat.identity(d, EXACT)
        rows = [[E.at(r, k) for k in range(d)] for r in range(d)]
        rows[i][j] = GaussianRational(c)
        E = Mat.from_rows(rows, EXACT)
        P = P @ E
    return P


def random_commuting_tuple(
    rng: random.Random, d: int, n: int, scheme: str = "poly"
) -> CommutingTuple:
    """Exactly commuting n-tuple on dimension d.

    scheme "poly": each operator a polynomial in one random matrix
    (nilpotent-rich); scheme "diag": conjugated diagonal matrices with
    small rational eigenvalues (simultaneously diagonalizable).
    """
    if scheme == "poly":
        A = random_exact_matrix(rng, d, complex_entries=rng.random() < 0.25)
        mats = [random_poly_in(rng, A) for _ in range(n)]
        return validate_tuple(mats)
    if scheme == "diag":
        P = random_unimodular(rng, d)
        Pinv = solve(P, Mat.identity(d, EXACT))
        mats = []
        for _ in range(n):
            diag = [
                GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                for _ in range(d)
            ]
            D = Mat.from_rows(
                [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)],
                EXACT,
            )
            mats.append(P @ D @ Pinv)
        return validate_tuple(mats)
    raise ValueError(f"unknown scheme {scheme!r}")


def random_polynomial(rng: random.Random, nvars: int, max_degree: int = 3) -> Polynomial:
    terms = []
    nterms = rng.randint(1, 4)
    for _ in range(nterms):
        remaining = max_degree
        expo = []
        for _ in range(nvars):
            k = rng.randint(0, remaining)
            expo.append(k)
            remaining -= k
        c = rng.randint(-2, 2)
        if c:
            terms.append((tuple(expo), c))
    if not terms:
        terms = [((0,) * nvars, 1)]
    return Polynomial.from_terms(nvars, terms, EXACT)


def random_invertible_pair(rng: random.Random, d: int):
    """Commuting matrix pair (T, q(T) + c) with joint spectrum off the origin.

    T is conjugated-diagonal; when 0 is an eigenvalue of T the constant
    is adjusted so the second coordinate is nonzero there, which makes
    the pair invertible.
    """
    tup = random_commuting_tuple(rng, d, 1, scheme="diag")
    T = tup.matrices[0]
    q = random_polynomial(rng, 1, max_degree=3)
    S = q.eval_matrices([T])
    q0 = q.eval_point([GaussianRational(0)])
    c = GaussianRational(rng.randint(-3, 3))
    # joint points are (lam, q(lam) + c); fix the fiber over lam = 0
    if (q0 + c).is_zero():
        c = c + GaussianRational(1)
    S = S + Mat.identity(d, EXACT).scale(c)
    return T, S
