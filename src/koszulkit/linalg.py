"""Deterministic dense linear algebra in two arithmetic modes.

Exact mode works over Gaussian rationals.  Every rank, kernel, solution
and independent-column choice comes from one elimination: each row is
cleared of denominators to Gaussian integers, then fraction-free Bareiss
elimination runs with exact division by the previous pivot, and back
substitution stays in Z[i] up to one division by the last pivot, so
nothing is ever rounded.  Float mode works over complex doubles and makes every
rank decision through an explicit relative tolerance via the SVD.

Pivots are the first nonzero entry, scanning columns left to right, so
every returned basis is reproducible across runs.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add, sub

import numpy as np

from .errors import DeflationFailure, ModeMismatch, ShapeError
from .scalars import EXACT, FLOAT, GR_ONE, GR_ZERO, GaussianRational, as_scalar, sqrt_ratio

#: default relative rank tolerance for float mode
TOL_RANK = 1e-10


class Mat:
    """Dense rows x cols matrix; entries exact Gaussian rationals or an
    ndarray of complex doubles, depending on ``mode``.

    Values are immutable after construction (float data is treated as
    read-only by convention); all operations are pure functions.
    """

    __slots__ = ("rows", "cols", "mode", "_ex", "_fl")

    def __init__(self, rows, cols, data, mode):
        self.rows = int(rows)
        self.cols = int(cols)
        self.mode = mode
        if mode == EXACT:
            flat = tuple(data)
            if len(flat) != self.rows * self.cols:
                raise ShapeError(
                    f"entry count {len(flat)} != {self.rows}x{self.cols}"
                )
            self._ex = flat
            self._fl = None
        elif mode == FLOAT:
            arr = np.asarray(data, dtype=complex).reshape(self.rows, self.cols)
            self._ex = None
            self._fl = arr
        else:
            raise ValueError(f"unknown mode {mode!r}")

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows, mode=EXACT) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeError("ragged row lengths")
        if mode == EXACT:
            flat = [as_scalar(v, EXACT) for row in rows for v in row]
            return cls(r, c, flat, EXACT)
        return cls(r, c, [[as_scalar(v, FLOAT) for v in row] for row in rows], FLOAT)

    @classmethod
    def from_numpy(cls, arr) -> "Mat":
        arr = np.asarray(arr, dtype=complex)
        if arr.ndim != 2:
            raise ShapeError("expected a 2-d array")
        return cls(arr.shape[0], arr.shape[1], arr, FLOAT)

    @classmethod
    def zeros(cls, rows, cols, mode=EXACT) -> "Mat":
        if mode == EXACT:
            return cls(rows, cols, (GR_ZERO,) * (rows * cols), EXACT)
        return cls(rows, cols, np.zeros((rows, cols), dtype=complex), FLOAT)

    @classmethod
    def identity(cls, d, mode=EXACT) -> "Mat":
        if mode == EXACT:
            flat = [GR_ONE if i == j else GR_ZERO for i in range(d) for j in range(d)]
            return cls(d, d, flat, EXACT)
        return cls(d, d, np.eye(d, dtype=complex), FLOAT)

    # -- access -------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def at(self, i, j):
        if self.mode == EXACT:
            return self._ex[i * self.cols + j]
        return complex(self._fl[i, j])

    def columns(self, js) -> "Mat":
        """The columns js of self, in that order."""
        if self.mode == EXACT:
            ent = [self._ex[i * self.cols + j] for i in range(self.rows) for j in js]
            return Mat(self.rows, len(js), ent, EXACT)
        return Mat(self.rows, len(js), self._fl[:, js], FLOAT)

    def to_numpy(self) -> np.ndarray:
        if self.mode == FLOAT:
            return self._fl.copy()
        out = np.empty((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self._ex[i * self.cols + j].to_complex()
        return out

    # -- algebra ------------------------------------------------------

    def _check_mode(self, other: "Mat"):
        if self.mode != other.mode:
            raise ModeMismatch(f"mixed modes {self.mode}/{other.mode}")

    def _entrywise(self, other: "Mat", op) -> "Mat":
        self._check_mode(other)
        if self.shape != other.shape:
            raise ShapeError(f"{op.__name__} shape mismatch {self.shape} vs {other.shape}")
        if self.mode == EXACT:
            return Mat(self.rows, self.cols, tuple(map(op, self._ex, other._ex)), EXACT)
        return Mat(self.rows, self.cols, op(self._fl, other._fl), FLOAT)

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, add)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Mat":
        if self.mode == EXACT:
            return Mat(self.rows, self.cols, tuple(-a for a in self._ex), EXACT)
        return Mat(self.rows, self.cols, -self._fl, FLOAT)

    def scale(self, c) -> "Mat":
        s = as_scalar(c, self.mode)
        if self.mode == EXACT:
            return Mat(self.rows, self.cols, tuple(s * a for a in self._ex), EXACT)
        return Mat(self.rows, self.cols, s * self._fl, FLOAT)

    def minus_scalar(self, c) -> "Mat":
        """self - c I for square self, subtracting c on the diagonal only."""
        if self.rows != self.cols:
            raise ShapeError("scalar shift of a non-square matrix")
        s = as_scalar(c, self.mode)
        if self.mode == FLOAT:
            return Mat(self.rows, self.cols, self._fl - s * np.eye(self.rows), FLOAT)
        ent = list(self._ex)
        for i in range(0, len(ent), self.cols + 1):
            ent[i] = ent[i] - s
        return Mat(self.rows, self.cols, ent, EXACT)

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_mode(other)
        if self.cols != other.rows:
            raise ShapeError(f"matmul shape mismatch {self.shape} @ {other.shape}")
        if self.mode == FLOAT:
            return Mat(self.rows, other.cols, self._fl @ other._fl, FLOAT)
        # row i of the product is sum_t a[i, t] * (row t of b), over nonzeros
        brows = _nonzero_rows(other)
        out = []
        for ai in _nonzero_rows(self):
            acc = [GR_ZERO] * other.cols
            for t, av in ai:
                for j, bv in brows[t]:
                    acc[j] = acc[j] + av * bv
            out.extend(acc)
        return Mat(self.rows, other.cols, out, EXACT)

    def adjoint(self) -> "Mat":
        """Conjugate transpose."""
        if self.mode == FLOAT:
            return Mat(self.cols, self.rows, self._fl.conj().T, FLOAT)
        ent = [
            self._ex[i * self.cols + j].conjugate()
            for j in range(self.cols)
            for i in range(self.rows)
        ]
        return Mat(self.cols, self.rows, ent, EXACT)

    def is_zero(self) -> bool:
        if self.mode == EXACT:
            return all(a.is_zero() for a in self._ex)
        return not self._fl.any()

    def fro_norm(self) -> float:
        if self.mode == FLOAT:
            m = self.max_abs()
            if not 0 < m < np.inf:
                return m
            # scaled by 2^-e for the largest |entry| m = f 2^e, exactly even for a
            # subnormal m (dividing by it can overflow): it overflows only where the norm does
            f, e = np.frexp(m)
            return m * float(np.linalg.norm(np.ldexp([self._fl.real, self._fl.imag], -e))) / f
        s = sum(a.abs2() for a in self._ex)  # exact: only a norm past the float range is inf
        return sqrt_ratio(s.numerator, s.denominator)

    def max_abs(self) -> float:
        if self.mode == FLOAT:
            return float(np.abs(self._fl).max()) if self._fl.size else 0.0
        return max((a.magnitude() for a in self._ex), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.mode != other.mode or self.shape != other.shape:
            return False
        if self.mode == EXACT:
            return self._ex == other._ex
        return bool(np.array_equal(self._fl, other._fl))


# -- assembly helpers -------------------------------------------------


def mat_block(grid) -> Mat:
    """Assemble a matrix from a non-empty 2-d grid of blocks of one mode:
    the blocks of a grid row share a height, the grid rows a total width."""
    grid = [list(row) for row in grid]
    if not grid or not all(grid):
        raise ShapeError("block grid or grid row of nothing")
    mode, cols = grid[0][0].mode, sum(m.cols for m in grid[0])
    for row in grid:
        for m in row:
            if m.mode != mode:
                raise ModeMismatch("mixed modes in block grid")
            if m.rows != row[0].rows:
                raise ShapeError("block grid row mismatch: blocks of one grid row differ in height")
        if sum(m.cols for m in row) != cols:
            raise ShapeError("block grid col mismatch: grid rows differ in total width")
    if mode == FLOAT:
        # what np.block gives, at a tenth of its call overhead on small grids
        return Mat.from_numpy(np.concatenate([np.concatenate([m._fl for m in row], axis=1) for row in grid]))
    ent = []
    for row in grid:
        for i in range(row[0].rows):
            for m in row:
                ent.extend(m._ex[i * m.cols : (i + 1) * m.cols])
    return Mat(sum(row[0].rows for row in grid), cols, ent, EXACT)


def block_diag_copies(S: Mat, k: int) -> Mat:
    """Block-diagonal matrix with k >= 1 copies of S."""
    z = Mat.zeros(S.rows, S.cols, S.mode)
    grid = [[S if i == j else z for j in range(k)] for i in range(k)]
    return mat_block(grid)


def mat_power(M: Mat, m: int) -> Mat:
    if M.rows != M.cols:
        raise ShapeError("power of a non-square matrix")
    out = Mat.identity(M.rows, M.mode)
    for _ in range(m):
        out = out @ M
    return out


def _nonzero_rows(M: Mat):
    """The nonzero entries of each row of exact M, as (column, value) pairs."""
    return [[(j, v) for j, v in enumerate(M._ex[i * M.cols : (i + 1) * M.cols]) if v] for i in range(M.rows)]


def commutator(A: Mat, B: Mat) -> Mat:
    """AB - BA.  For exact square A and B of one size, each row sums the
    products a_it b_tj less b_it a_tj over the nonzeros, the products of
    A @ B and B @ A, with no product matrix and no subtraction of matrices;
    any other pair, float or one A @ B refuses, is taken as A @ B - B @ A."""
    if not (A.mode == B.mode == EXACT and A.rows == A.cols == B.rows == B.cols):
        return A @ B - B @ A
    arows, brows = _nonzero_rows(A), _nonzero_rows(B)
    out = []
    for ai, bi in zip(arows, brows):
        acc = [None] * A.rows  # None until a first term, which then costs no addition
        for t, u in ai:
            for j, v in brows[t]:
                acc[j] = u * v if acc[j] is None else acc[j] + u * v
        for t, u in bi:
            for j, v in arows[t]:
                acc[j] = -(u * v) if acc[j] is None else acc[j] - u * v
        out.extend([GR_ZERO if w is None else w for w in acc])
    return Mat(A.rows, A.rows, out, EXACT)


# -- exact elimination (Bareiss over the Gaussian integers) ------------


def _gauss_int_rows(M: Mat, L=None):
    """Rows of exact M as lists of (re, im) int pairs.

    Each row is multiplied by L, by default the lcm of its entries'
    denominators d; the d of a normal-form (a + b*i)/d is the lcm of its
    two parts' denominators.  Scaling a row changes neither the rank, the
    kernel nor the pivot positions.
    """
    c = M.cols
    out = []
    for i in range(M.rows):
        row = M._ex[i * c : (i + 1) * c]
        s = L or lcm(*(v.d for v in row))
        out.append([(v.a * (s // v.d), v.b * (s // v.d)) for v in row])
    return out


def _echelon(rows, npiv):
    """Fraction-free Bareiss elimination on Gaussian-integer rows, in place.

    The pivot of each step is the first nonzero entry, scanning columns
    ``0..npiv-1`` left to right; later columns are carried along but never
    pivot.  Each update divides exactly in Z[i] by the previous pivot
    (Bareiss 1968), so every entry stays a Gaussian integer minor.  Row r
    ends up holding the r-th pivot.  Returns the pivot columns.
    """
    m = len(rows)
    width = len(rows[0]) if m else 0
    piv = []
    pr, pi = 1, 0
    for c in range(npiv):
        r = len(piv)
        if r == m:
            break
        for i in range(r, m):
            if rows[i][c] != (0, 0):
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        kr, ki = top[c]
        den = pr * pr + pi * pi
        for i in range(r + 1, m):
            row = rows[i]
            ar, ai = row[c]
            for j in range(c + 1, width):
                xr, xi = row[j]
                tr, ti = top[j]
                # k * x - a * t, then exact division by the previous pivot
                nr = kr * xr - ki * xi - ar * tr + ai * ti
                ni = kr * xi + ki * xr - ar * ti - ai * tr
                if pi:
                    nr, ni = (nr * pr + ni * pi) // den, (ni * pr - nr * pi) // den
                elif pr != 1:
                    nr, ni = nr // pr, ni // pr
                row[j] = (nr, ni)
            row[c] = (0, 0)
        piv.append(c)
        pr, pi = kr, ki
    return piv


def _back_substitute(rows, piv, j, n, sign=1):
    """``sign`` times the x with free entries 0 that solves the pivot rows
    against their column j.  The last pivot delta is the determinant of
    the pivot block, so y = delta x is a Gaussian integer (Cramer's rule)
    and each y entry an exact division in Z[i] by its row's pivot (Nakos,
    Turner and Williams, SIGSAM Bull. 31, 1997); x is y/delta."""
    x = [GR_ZERO] * n
    r = len(piv)
    dr, di = rows[r - 1][piv[-1]] if r else (1, 0)
    ys = [None] * r
    for i in range(r - 1, -1, -1):
        row = rows[i]
        br, bi = row[j]
        sr, si = dr * br - di * bi, dr * bi + di * br
        for k in range(i + 1, r):
            yr, yi = ys[k]
            ar, ai = row[piv[k]]
            if (yr or yi) and (ar or ai):
                sr, si = sr - ar * yr + ai * yi, si - ar * yi - ai * yr
        pr, pi = row[piv[i]]
        den = pr * pr + pi * pi
        ys[i] = ((sr * pr + si * pi) // den, (si * pr - sr * pi) // den)
    # y / delta = y conj(delta) / |delta|^2
    cr, ci, q = sign * dr, -sign * di, dr * dr + di * di
    for c, (yr, yi) in zip(piv, ys):
        if yr or yi:
            x[c] = GaussianRational.from_ints(yr * cr - yi * ci, yr * ci + yi * cr, q)
    return x


def _from_columns(cols, n) -> Mat:
    return Mat(n, len(cols), [col[i] for i in range(n) for col in cols], EXACT)


def _free_kernel(rows, piv, n) -> Mat:
    vecs = []
    for f in sorted(set(range(n)) - set(piv)):
        # e_f minus the solution of the pivot rows against column f
        x = _back_substitute(rows, piv, f, n, -1)
        x[f] = GR_ONE
        vecs.append(x)
    return _from_columns(vecs, n)


def _primitive(row):
    """A Gaussian-integer row divided by its content; the row itself if no g > 1 divides it."""
    g = gcd(*chain.from_iterable(row))
    return [(a // g, b // g) for a, b in row] if g > 1 else row


def _int_product(P, Q):
    """Rows of P Q for Gaussian-integer rows, each divided by its content."""
    m = len(Q[0]) if Q else 0
    qrows = [[(j, qr, qi) for j, (qr, qi) in enumerate(row) if qr or qi] for row in Q]
    out = []
    for prow in P:
        re, im = [0] * m, [0] * m
        for (pr, pi), q in zip(prow, qrows):
            if pr or pi:
                for j, qr, qi in q:
                    re[j] += pr * qr - pi * qi
                    im[j] += pr * qi + pi * qr
        out.append(_primitive(list(zip(re, im))))
    return out


# -- polynomials over Z[i]: lists of (re, im) int pairs, highest degree first


def _dot(x, y):
    """sum x_j y_j over Gaussian-integer pairs."""
    re = im = 0
    for (a, b), (c, e) in zip(x, y):
        re += a * c - b * e
        im += a * e + b * c
    return re, im


def _charpoly(rows):
    """det(zI - M) for Gaussian-integer rows by Berkowitz's division-free
    recursion (IPL 18, 1984): for a trailing block [[a, R], [C, A]], the lower
    triangular Toeplitz matrix of (1, -a, -RC, -RAC, ...) times det(zI - A)."""
    n = len(rows)
    p = [(1, 0)]
    for k in range(n - 1, -1, -1):
        R, A, v = rows[k][k + 1 :], [row[k + 1 :] for row in rows[k + 1 :]], [row[k] for row in rows[k + 1 :]]
        t = [(1, 0), (-rows[k][k][0], -rows[k][k][1])]
        for j in range(n - k - 1):
            v = [_dot(row, v) for row in A] if j else v
            re, im = _dot(R, v)
            t.append((-re, -im))
        p = [_dot(t[i::-1], p) for i in range(n - k + 1)]
    return p


def _pdivmod(a, b):
    """Pseudo-division: (q, r) with lc(b)^(len(a) - len(b) + 1) a = q b + r,
    r shorter than b and without leading zeros; for monic b, a = q b + r."""
    (lr, li), q, r = b[0], [], list(a)
    tail = b[1:] + [(0, 0)] * (len(a) - len(b))
    while len(r) >= len(b):
        (cr, ci), r = r[0], r[1:]
        q = [(lr * x - li * y, lr * y + li * x) for x, y in q] + [(cr, ci)]
        r = [(lr * x - li * y - cr * u + ci * v, lr * y + li * x - cr * v - ci * u) for (x, y), (u, v) in zip(r, tail)]
    while r and r[0] == (0, 0):
        r = r[1:]
    return q, r


def _horner(p, mu):
    """(q, p(mu)) with p = (z - mu) q + p(mu): ``_pdivmod`` by z - mu, fast."""
    mr, mi = mu
    out = [p[0]]
    for cr, ci in p[1:]:
        xr, xi = out[-1]
        out.append((cr + xr * mr - xi * mi, ci + xr * mi + xi * mr))
    return out[:-1], out[-1]


def _squarefree(p):
    """p / gcd(p, p') for monic p in Z[i][z], with p's roots once each.  The
    gcd ends the pseudo-remainder sequence, each remainder divided by its
    integer content; its monic multiple is in Z[i][z], as p's roots are
    algebraic integers, so its leading coefficient divides it exactly."""
    a, b = p, [(x * j, y * j) for j, (x, y) in zip(range(len(p) - 1, 0, -1), p)]
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    c, e = a[0]
    n = c * c + e * e
    return _pdivmod(p, [((x * c + y * e) // n, (y * c - x * e) // n) for x, y in a])[0]


def _rounded_roots(s):
    """The roots of monic s in Z[i][z] rounded to Gaussian integers, from the
    float roots of s(w + c), c the Gaussian integer nearest their mean."""
    k = len(s) - 1
    c = tuple((k - 2 * x) // (2 * k) for x in s[1])
    if k == 1:
        return [c]
    q, shifted = s, []
    while len(q) > 1:
        q, r = _horner(q, c)
        shifted.insert(0, r)
    try:
        roots = np.roots([complex(*x) for x in q + shifted])
    except OverflowError:  # coefficients beyond the float range
        return []
    return [(c[0] + round(z.real), c[1] + round(z.imag)) for z in roots if np.isfinite(z)]


def gaussian_eigenvalues(A: Mat) -> list:
    """Pairs (lam, m): each eigenvalue lam of exact square A that lies in
    Q(i), once, with its algebraic multiplicity m.

    The strongly connected components of A's nonzero pattern (i -> j for
    A[i, j] != 0), in a topological order, make A block upper triangular
    up to a permutation, so its eigenvalues are its diagonal blocks'
    together: a 1 x 1 block's entry, or ``_block_eigenvalues`` of a larger one.
    """
    if A.rows != A.cols:
        raise ShapeError("eigenvalues of a non-square matrix")
    n = A.rows
    reach = [1 << i | sum(1 << j for j, _ in row) for i, row in enumerate(_nonzero_rows(A))]
    for k in range(n):  # Warshall: reach[i] ends as the indices i reaches
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    out = {}
    for i in range(n):
        block = [j for j in range(n) if reach[i] >> j & reach[j] >> i & 1]
        if block[0] == i:  # each block once, at its first index
            k, sub = len(block), [A._ex[r * n + c] for r in block for c in block]
            for lam, m in [(sub[0], 1)] if k == 1 else _block_eigenvalues(Mat(k, k, sub, EXACT)):
                out[lam] = out.get(lam, 0) + m
    return list(out.items())


def _block_eigenvalues(A: Mat) -> list:
    """``gaussian_eigenvalues`` of one block A, from its characteristic
    polynomial.

    p(z) = det(zI - LA), L the lcm of A's denominators, is monic in Z[i][z],
    so its roots in Q(i) are Gaussian integers mu = L lam: rounded float
    roots of its square-free part s (again for those left, while that finds
    more), kept if p(mu) = 0 exactly, m the exact divisions of p by z - mu.
    The m never overcount; they fall short of dim A exactly when some
    eigenvalue is not in Q(i) or its float root did not round to it.
    """
    L = lcm(*(v.d for v in A._ex))
    p = _charpoly(_gauss_int_rows(A, L))
    s, out = _squarefree(p), []
    while len(s) > 1:
        found = len(out)
        for mu in _rounded_roots(s):
            m = 0
            while len(p) > 1:
                q, r = _horner(p, mu)
                if r != (0, 0):
                    break
                p, m = q, m + 1
            if m:
                s = _horner(s, mu)[0]
                out.append((GaussianRational.from_ints(mu[0], mu[1], L), m))
        if len(out) == found:
            break
    return out


def _exact_solve(A: Mat, B: Mat):
    """Solve A X = B exactly by eliminating [A | B]; None if inconsistent.
    Free variables are 0."""
    rows = _gauss_int_rows(mat_block([[A, B]]))
    n = A.cols
    piv = _echelon(rows, n)
    if any(v != (0, 0) for row in rows[len(piv) :] for v in row[n:]):
        return None
    return _from_columns([_back_substitute(rows, piv, n + k, n) for k in range(B.cols)], n)


# -- float (SVD) counterparts ------------------------------------------


def _rank_count(s, tol_rank) -> int:
    """The float rank decision: how many of the singular values s (in
    decreasing order) exceed tol_rank times the largest; s[:1] makes an
    empty s count 0."""
    return int(np.sum(s > tol_rank * s[:1]))


def _float_rank(arr, tol_rank) -> int:
    return _rank_count(np.linalg.svd(arr)[1], tol_rank)


def _float_kernel(arr, tol_rank) -> np.ndarray:
    if arr.size == 0:
        return np.eye(arr.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(arr, full_matrices=True)
    return vh[_rank_count(s, tol_rank) :].conj().T


# -- public operations -------------------------------------------------


def rank(M: Mat, tol_rank: float | None = None) -> int:
    """Rank of M; in float mode, singular values above tol * largest."""
    if M.mode == EXACT:
        return len(_echelon(_gauss_int_rows(M), M.cols))
    return _float_rank(M._fl, TOL_RANK if tol_rank is None else tol_rank)


def kernel_basis(M: Mat, tol_rank: float | None = None) -> Mat:
    """Matrix whose columns are a basis of ker M (cols - rank of them).

    Exact mode: each column satisfies M v = 0 with zero residual; there is
    one per free column f of M, in increasing f, with the identity at the
    free rows and row f its last nonzero row, so it depends only on ker M.
    Float mode: residuals are below tol * ||M||.
    """
    if M.mode == EXACT:
        rows = _gauss_int_rows(M)
        return _free_kernel(rows, _echelon(rows, M.cols), M.cols)
    ns = _float_kernel(M._fl, TOL_RANK if tol_rank is None else tol_rank)
    return Mat.from_numpy(ns)


def kernel_chain(B: Mat, room: int, tol_rank: float | None = None) -> Mat:
    """Basis of ker B^k for square B, as ``kernel_basis`` gives it, for the
    first k whose kernel has ``room`` columns or does not grow (the ascent);
    with room a bound on dim ker B^d, d = dim B, that is ker B^d."""
    if B.rows != B.cols:
        raise ShapeError("kernel chain of a non-square matrix")
    if B.mode == FLOAT:
        E, P = kernel_basis(B, tol_rank), B
        while 0 < E.cols < room:
            P = P @ B
            F = kernel_basis(P, tol_rank)
            if F.cols == E.cols:
                break
            E = F
        return E
    # (L B)^k = L^k B^k for one scalar L, and a row divided by its content keeps the kernel
    n = B.cols
    LB = _gauss_int_rows(B, lcm(*(v.d for v in B._ex)))
    P, rows = LB, [_primitive(row[:]) for row in LB]
    piv = _echelon(rows, n)
    while 0 < n - len(piv) < room:
        P = _int_product(P, LB)
        nxt = [row[:] for row in P]
        npiv = _echelon(nxt, n)
        if len(npiv) == len(piv):
            break
        rows, piv = nxt, npiv
    return _free_kernel(rows, piv, n)


def solve(A: Mat, B: Mat, tol: float | None = None):
    """Solve A X = B; returns None when the system is inconsistent."""
    A._check_mode(B)
    if A.rows != B.rows:
        raise ShapeError("solve: row mismatch")
    if A.mode == EXACT:
        return _exact_solve(A, B)
    t = TOL_RANK if tol is None else tol
    x, *_ = np.linalg.lstsq(A._fl, B._fl, rcond=None)
    resid = A._fl @ x - B._fl
    scale = max(1.0, float(np.linalg.norm(A._fl)) * max(1.0, float(np.linalg.norm(x))))
    if float(np.linalg.norm(resid)) > 1e3 * t * scale:
        return None
    return Mat.from_numpy(x)


def compress(mats, E: Mat, tol: float | None = None) -> list:
    """The C with E C = M E for each M in ``mats``, or DeflationFailure.  An
    exact E is a kernel basis, the identity at its free rows (the last nonzero
    row of each column): C is those rows of M E, if E C == M E."""
    e = E.cols
    free = [max(i for i in range(E.rows) if E.at(i, j)) for j in range(e)] if E.mode == EXACT else None
    out = []
    for M in mats:
        ME = M @ E
        if free is None:
            C = solve(E, ME, tol)
        else:
            C = Mat(e, e, [ME.at(f, j) for f in free for j in range(e)], EXACT)
            C = C if E @ C == ME else None
        if C is None:
            raise DeflationFailure(
                "subspace expected to be invariant was not; eigenspace "
                "extraction is below the conditioning threshold"
            )
        out.append(C)
    return out


def independent_columns(M: Mat, tol_rank: float | None = None) -> list[int]:
    """Indices of the columns of M that are not in the span of the columns
    before them, left to right; they form a basis of the range of M."""
    if M.mode == EXACT:
        return _echelon(_gauss_int_rows(M), M.cols)
    t = TOL_RANK if tol_rank is None else tol_rank
    r = _float_rank(M._fl, t)
    chosen = []
    cur = np.zeros((M.rows, 0), dtype=complex)
    for j in range(M.cols):
        if len(chosen) == r:
            break
        cand = np.hstack([cur, M._fl[:, j : j + 1]])
        if _float_rank(cand, t) > cur.shape[1]:
            chosen.append(j)
            cur = cand
    return chosen
