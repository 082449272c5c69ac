"""Banded, eventually periodic operators on l2(N) with certified sections.

An operator is stored as finitely many diagonals, each given by a finite
prefix plus a repeating tail.  Past the prefixes it is block Toeplitz,
and the prefixes hold any finite-rank part: a dense top-left block
("patch") given to ``BandedOperator.build`` is folded into them.  This
class of operators is closed under sums, products, adjoints and
polynomials, and every entry is stored exactly (Gaussian rationals), so
operator algebra carries no rounding error; only section computations
(kernels, norms) and the sampled symbol use floating point.  Sums,
patches (added as finite-rank operators) and products all accumulate
per-offset value lists that one helper normalizes; a product goes one
pair of stored diagonals at a time.  Sections are real
(float64) for an operator whose stored values are all real, so their
SVDs and QRs take numpy's real LAPACK drivers; complex otherwise.

Kernel computations use rectangular truncations: a vector supported on
the first N coordinates that the (N + w) x N section B of T kills is a
genuine kernel vector of T (every row that could be nonzero was
included).  There is one window rule: the guard band is G = max(16, w),
ker T starts at N = max(64, 2G), each power at the window of the power
before, and N doubles up to max(1024, N).  Every vector must die out
before the guard band.  ker T^m for every m >= 1 is the preimage chain
{x : B x in ker T^(m-1)} from ker T^0 = {0}, walked by one
``KernelWalk`` per operator, so each window of B is factored at most
once and no power of T is ever formed.  A step keeps the basis of ker T^(m-1) as its
first columns and appends its new directions, orthogonal to them, so the
basis of ker T^m is nested, [H_1 | ... | H_m], with H_n spanning
ker T^n (-) ker T^(n-1): the layers of a kernel tower.  A step is accepted at N when its count
reaches an upper bound on its dimension, which no larger window could
exceed: dim ker T^(m-1) + dim ker T for m >= 2, and for ker T of a
scalar Toeplitz T Coburn's dimension, which its winding gives.  A count
above the bound raises NotStabilized; any other waits for N and 2N to
agree.
At the window where a kernel reached its bound, with dim ker T raw null
vectors, the next step preimages only that kernel's newest layer.
From {0} singular values confirm a 2N count, and unless the winding
puts a positive floor under dim ker T they come first and settle an
empty kernel unfactored.
That certificate is a desk-scale stabilization check, not a proof:
operators whose kernel vectors have unbounded support (none of the
catalog instances) can stabilize to an undercount.

Fredholmness comes from the symbol of the periodic tail
(``symbol_winding``).  Its winding bounds dim ker T below by the index
and, for a scalar Toeplitz T, above, which shortens the check of a count
that reaches it and refuses one above it; the counts give ``index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import lcm

import numpy as np

from .errors import FormatError, NotStabilized, PreconditionError
from .scalars import EXACT, GR_ONE, GR_ZERO, GaussianRational, as_scalar

#: least section size and guard band, and the cap for auto-doubling
DEFAULT_N = 64
DEFAULT_G = 16
MAX_SECTION = 1024

#: kernel certification tolerances
TOL_SECTION_RANK = 1e-10
TOL_GUARD = 1e-12
TOL_RESIDUAL = 1e-10

#: relative size of det(symbol) on the unit circle at or below which the
#: operator counts as not Fredholm
TOL_CIRCLE = 1e-8

#: first and largest number of unit-circle samples of det(symbol)
SYMBOL_SAMPLES = 64
MAX_SYMBOL_SAMPLES = 2**14


def _as_gr(v) -> GaussianRational:
    return as_scalar(v, EXACT)


@dataclass(frozen=True)
class Diagonal:
    """One diagonal: values prefix[t] then period repeating, t = 0, 1, ...

    For offset o >= 0 the t-th entry sits at (t, t + o); for o < 0 at
    (t - o, t).
    """

    offset: int
    prefix: tuple
    period: tuple

    def value(self, t: int) -> GaussianRational:
        if t < len(self.prefix):
            return self.prefix[t]
        return self.period[(t - len(self.prefix)) % len(self.period)]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.prefix + self.period)


def _normalize_diagonal(offset, prefix, period) -> Diagonal:
    pre = [_as_gr(v) for v in prefix]
    per = [_as_gr(v) for v in period]
    if not per:
        raise FormatError("diagonal tail rule needs a period of length >= 1")
    # minimal tiling period
    n = len(per)
    for L in range(1, n + 1):
        if n % L == 0 and per == per[:L] * (n // L):
            per = per[:L]
            break
    # absorb prefix tail into a rotated period
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return Diagonal(offset, tuple(pre), tuple(per))


@dataclass(frozen=True)
class BandedOperator:
    """Banded eventually periodic operator, held only by its diagonals.

    Every diagonal is normalized (shortest prefix, minimal period) and
    zero diagonals are dropped, so one operator has one encoding: the
    generated ``==`` and ``hash`` compare operators, and ``is_zero`` is
    exact.
    """

    diagonals: tuple  # Diagonal, sorted by offset, zero diagonals dropped

    @classmethod
    def build(cls, diagonals, patch=None) -> "BandedOperator":
        """Operator with the given diagonals plus an optional exact square
        ``patch`` on the top-left corner.  Patch entry (i, j) is added into
        the prefix of diagonal j - i at t = min(i, j)."""
        by_offset = {}
        for d in diagonals:
            if d.offset in by_offset:
                raise FormatError(f"duplicate diagonal offset {d.offset}")
            by_offset[d.offset] = _normalize_diagonal(d.offset, d.prefix, d.period)
        diags = (d for d in by_offset.values() if not d.is_zero())
        op = cls(tuple(sorted(diags, key=lambda d: d.offset)))
        if patch is None:
            return op
        if patch.mode != EXACT:
            raise FormatError("patch entries must be exact")
        if patch.rows != patch.cols:
            raise FormatError("patch must be square")
        n = patch.rows
        corner = []  # each patch diagonal as a prefix over a zero tail
        for o in range(1 - n, n):
            entries = (patch.at(t + max(-o, 0), t + max(o, 0)) for t in range(n - abs(o)))
            corner.append(Diagonal(o, tuple(entries), (GR_ZERO,)))
        return op + cls.build(corner)

    # -- structure ----------------------------------------------------

    @property
    def bandwidth(self) -> int:
        return max((abs(d.offset) for d in self.diagonals), default=0)

    def _diag(self, offset: int):
        for d in self.diagonals:
            if d.offset == offset:
                return d
        return None

    def entry(self, i: int, j: int) -> GaussianRational:
        d = self._diag(j - i)
        if d is None:
            return GR_ZERO
        return d.value(min(i, j))

    def is_zero(self) -> bool:
        return not self.diagonals

    def section(self, rows: int, cols: int) -> np.ndarray:
        """Truncation to the first ``rows`` x ``cols`` coordinates, in the
        operator's own field: float64 when every stored value is real (so
        numpy takes the real SVD and QR), complex128 otherwise."""
        real = all(not v.b for d in self.diagonals for v in d.prefix + d.period)
        A = np.zeros((rows, cols), dtype=float if real else complex)
        for d in self.diagonals:
            o, pre = d.offset, len(d.prefix)
            t = np.arange(max(min(rows, cols - o) if o >= 0 else min(cols, rows + o), 0))
            # entry t is prefix[t], then period[(t - pre) % len(period)]
            idx = np.where(t < pre, t, pre + (t - pre) % len(d.period))
            vals = np.array([v.to_complex() for v in d.prefix + d.period])
            A[t + max(-o, 0), t + max(o, 0)] = (vals.real if real else vals)[idx]
        return A

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Image of a finitely supported vector, support extended as needed."""
        n = vec.shape[0]
        return self.section(max(n + self.bandwidth, 1), n) @ vec

    def norm_bound(self) -> float:
        """Upper bound on the operator norm (Schur row/column sum test)."""
        pre, per = self._tail_params()
        w = self.bandwidth
        reach = pre + per + w + 1
        sec = np.abs(self.section(reach + w, reach + w))
        return float(np.sqrt(sec.sum(axis=1).max() * sec.sum(axis=0).max()))

    # -- algebra --------------------------------------------------------

    def _tail_params(self):
        pre = max((len(d.prefix) for d in self.diagonals), default=0)
        per = 1
        for d in self.diagonals:
            per = lcm(per, len(d.period))
        return pre, per

    def __add__(self, other: "BandedOperator") -> "BandedOperator":
        """Sum, accumulated per offset the way ``__mul__`` is."""
        la, pa = self._tail_params()
        lb, pb = other._tail_params()
        L, P = max(la, lb), lcm(pa, pb)
        sums = {}
        for d in self.diagonals + other.diagonals:
            vals = sums.setdefault(d.offset, [GR_ZERO] * (L + P))
            for t in range(L + P):
                vals[t] = vals[t] + d.value(t)
        return _assemble(sums, L)

    def __sub__(self, other: "BandedOperator") -> "BandedOperator":
        return self + other.scale(-1)

    def scale(self, c) -> "BandedOperator":
        s = _as_gr(c)
        diags = [
            Diagonal(d.offset, tuple(s * v for v in d.prefix), tuple(s * v for v in d.period))
            for d in self.diagonals
        ]
        return BandedOperator.build(diags)

    def adjoint(self) -> "BandedOperator":
        diags = [
            Diagonal(
                -d.offset,
                tuple(v.conjugate() for v in d.prefix),
                tuple(v.conjugate() for v in d.period),
            )
            for d in self.diagonals
        ]
        return BandedOperator.build(diags)

    def __mul__(self, other: "BandedOperator") -> "BandedOperator":
        """Operator composition (matrix product), one pair of stored
        diagonals at a time: diagonal oa of self times diagonal ob of other
        adds self(i, i + oa) * other(i + oa, i + oa + ob) into diagonal
        oa + ob.  Past L positions every diagonal repeats with period P."""
        if self.is_zero() or other.is_zero():
            return zero_op()
        la, pa = self._tail_params()
        lb, pb = other._tail_params()
        L = max(la, lb) + self.bandwidth + other.bandwidth
        P = lcm(pa, pb)
        sums = {}
        for da in self.diagonals:
            for db in other.diagonals:
                o = da.offset + db.offset
                i0 = max(-o, 0)  # entry t of diagonal o sits at (t + i0, t + i0 + o)
                vals = sums.setdefault(o, [GR_ZERO] * (L + P))
                # through the middle index k = i + oa, which must be >= 0
                for t in range(max(-i0 - da.offset, 0), L + P):
                    i, k = t + i0, t + i0 + da.offset
                    av, bv = da.value(min(i, k)), db.value(min(k, i + o))
                    if av and bv:
                        vals[t] = vals[t] + av * bv
        return _assemble(sums, L)

    def power(self, m: int) -> "BandedOperator":
        out = identity_op()
        for k in range(m):
            out = out * self if k else self
        return out

    def poly(self, coeffs) -> "BandedOperator":
        """p(T) for p given by its coefficient list [c0, c1, ...]."""
        out = zero_op()
        pw = identity_op()
        for k, c in enumerate(coeffs):
            gc = _as_gr(c)
            if k > 0:
                pw = pw * self if k > 1 else self
            if not gc.is_zero():
                out = out + pw.scale(gc)
        return out


def _assemble(sums: dict, L: int) -> BandedOperator:
    """Operator whose diagonal o holds ``sums[o]``: L prefix values, then one period."""
    return BandedOperator.build(Diagonal(o, tuple(v[:L]), tuple(v[L:])) for o, v in sums.items())


def zero_op() -> BandedOperator:
    return BandedOperator.build([])


def identity_op() -> BandedOperator:
    return BandedOperator.build([Diagonal(0, (), (GR_ONE,))])


# -- catalog -----------------------------------------------------------


def make_catalog_operator(kind: str, **params) -> BandedOperator:
    """Named operators: shift, adjoint_shift, weighted_shift, toeplitz,
    diagonal.

    weighted_shift: weights given by ``prefix``/``period`` sequences,
    acting as e_k -> w_k e_(k+1).
    toeplitz: ``symbol`` maps exponent k to the coefficient of z^k; the
    matrix entry at (i, j) is the coefficient of z^(i-j).
    diagonal: ``values`` prefix plus ``period`` tail (default all-zero
    tail, i.e. a finite-rank compact candidate).
    """
    if kind == "shift":
        return BandedOperator.build([Diagonal(-1, (), (GR_ONE,))])
    if kind == "adjoint_shift":
        return BandedOperator.build([Diagonal(1, (), (GR_ONE,))])
    if kind == "weighted_shift":
        prefix = [_as_gr(v) for v in params.get("prefix", [])]
        period = [_as_gr(v) for v in params.get("period", [])]
        if not period:
            raise FormatError("weighted_shift needs a nonempty period")
        return BandedOperator.build([Diagonal(-1, tuple(prefix), tuple(period))])
    if kind == "toeplitz":
        raw = params.get("symbol")
        if not raw:
            raise FormatError("toeplitz needs a nonempty symbol")
        symbol = {int(k): _as_gr(v) for k, v in dict(raw).items()}
        diags = [
            Diagonal(-k, (), (c,)) for k, c in sorted(symbol.items()) if not c.is_zero()
        ]
        return BandedOperator.build(diags)
    if kind == "diagonal":
        values = [_as_gr(v) for v in params.get("values", [])]
        period = [_as_gr(v) for v in params.get("period", [GR_ZERO])]
        return BandedOperator.build([Diagonal(0, tuple(values), tuple(period))])
    raise FormatError(f"unknown catalog kind {kind!r}")


# -- sections and certified kernels -------------------------------------


@dataclass(frozen=True)
class TruncationWindow:
    """Section size N and guard band G at which a kernel was accepted."""

    N: int
    G: int


@dataclass(frozen=True)
class StabilizedSubspace:
    """Orthonormal basis (columns) of a kernel, certified at ``window`` by
    a chain step (``_chain_kernel``): built only when the next window
    agrees or the count reaches an upper bound on the dimension, which
    ``at_bound`` records (False for a hand-built kernel).  The basis of
    ker T^m from a walk is nested: its first dim ker T^(m-1) columns are
    the basis of ker T^(m-1), zero-padded to this window."""

    basis: np.ndarray  # (support, dim)
    dim: int
    window: TruncationWindow
    at_bound: bool = False


def _fix_phases(B: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest entry (the first, on a tie) is
    real positive; a zero column stays as it is."""
    v = B[np.abs(B).argmax(axis=0), np.arange(B.shape[1])]
    return B * np.divide(np.abs(v), v, out=np.ones_like(v), where=v != 0)


def _orthonormalize(B: np.ndarray) -> np.ndarray:
    """B's Q factor with R's diagonal made real positive (e1 for a zero column).  One
    column is divided by its unscaled norm where squaring neither under- nor overflows."""
    if B.shape[1] == 1 and 1e-150 < (norm := np.linalg.norm(B)) < 1e150:
        return B / norm
    q, r = np.linalg.qr(B)
    d = r.diagonal().copy()
    d[d == 0] = 1.0
    q *= d.conj() / np.abs(d)
    return q


def _section_nullity(Tm: BandedOperator, N: int) -> int:
    """Nullity of the window-N section from its singular values alone, by
    ``_factor_section``'s rank rule: no basis, guard band or residual."""
    s = np.linalg.svd(Tm.section(max(N + Tm.bandwidth, 1), N), compute_uv=False)
    return N - int(np.sum(s > TOL_SECTION_RANK * s[0]))


def _factor_section(T: BandedOperator, N: int):
    """(B, U_r, s_r, V, U_r*, V_r, V_0) for the window-N section
    B = T[0:N+w, 0:N] = U S V*, the rank r the number of singular values
    above TOL_SECTION_RANK * s[0]; V = [V_r | V_0] splits at column r."""
    B = T.section(N + T.bandwidth, N)
    u, s, vh = np.linalg.svd(B, full_matrices=False)
    r = int(np.sum(s > TOL_SECTION_RANK * s[0]))
    V = vh.conj().T
    return B, u[:, :r].copy(), s[:r], V, u[:, :r].conj().T, V[:, :r], V[:, r:]


def _preimage_kernel(fact, K: np.ndarray, G: int, layer: int = 0):
    """(dim, nested basis [K | H] on [0, N-G)) of {x : B x in span K} for
    the factored window-N section B and orthonormal K, the basis of
    ker T^(m-1) (no columns for ker T).  The columns P whose preimages are
    new, all of K or in a layer step its newest ``layer`` columns, are cut
    down to ran B from U_r* P formed once: the c with (I - U_r U_r*) P c ~ 0
    come from a thin SVD by the rank rule relative to ||P|| = 1, run only
    when that projection's Frobenius norm, a bound on its singular values,
    exceeds TOL_SECTION_RANK (below it the rule keeps every c).  The step
    to ker T takes null(B)'s basis V_0 as it is: with no K there is no
    sine to check and nothing to split off.  Past it the full step adds
    null(B): ns = [V_0 | V_r Q], Q the QR factor of S_r^-1 U_r* K, is
    orthonormal to rounding however ill-conditioned S_r is.  K must lie
    in span ns: the Frobenius norm of K - ns ns* K, which bounds the sine
    of their largest angle, is within TOL_RESIDUAL, else
    NotStabilized.  The SVD of ns* K splits off the new directions.  A
    layer step is for a K that spans every preimage of its other columns'
    span at this section (``_chain_kernel`` says when): its new directions
    are B^+ P projected off span K twice (twice is enough) and
    orthonormalized once (``_orthonormalize``: a QR, or for one column a
    division by its norm), with no SVD of ns* K and no sine check,
    which the step before passed on this section.  Of the new directions
    the combinations that vanish on the guard band are kept, by an SVD of
    the guard rows run only when their Frobenius norm exceeds TOL_GUARD
    (else all, as they are).  Unless the residual (I - K K*) B x of K and
    of every kept direction is within TOL_RESIDUAL * max(1, ||B||), the
    step finds K alone; else the new directions are cut to [0, N-G), which
    moves their Gram matrix off I by at most TOL_GUARD^2 (so no second
    orthonormalization), and phase-fixed into H, so K's columns stay
    bitwise the first ones."""
    B, U, s, V, Uh, Vr, V0 = fact
    N, d = V.shape[0], K.shape[1]
    Kp = np.zeros((B.shape[0], d), dtype=K.dtype)
    Kp[: K.shape[0]] = K
    P = Kp[:, d - layer :] if layer else Kp  # the columns whose preimages are new
    UK = Uh @ P
    out = P - U @ UK  # the part outside ran B
    if np.linalg.norm(out) > TOL_SECTION_RANK:
        _, ps, pvh = np.linalg.svd(out, full_matrices=False)
        UK = UK @ pvh[int(np.sum(ps > TOL_SECTION_RANK)) :].conj().T
    if layer:
        new = Vr @ (UK / s[:, None])
        for _ in range(2):
            new = new - Kp[:N] @ (Kp[:N].conj().T @ new)
        new = _orthonormalize(new)
    elif not d:
        new = V0  # the step to ker T: null(B), with nothing to split off
    else:
        ns = np.concatenate([V0, Vr @ _orthonormalize(UK / s[:, None])], axis=1)
        cos = ns.conj().T @ Kp[:N]
        sine = np.linalg.norm(Kp[:N] - ns @ cos)
        if sine > TOL_RESIDUAL:
            raise NotStabilized(
                f"T does not map ker T^(m-1) into itself at section size {N}: its basis "
                f"lies up to sine {sine:.3e} off the preimages of its span (tolerance "
                f"{TOL_RESIDUAL:g})"
            )
        new = ns @ np.linalg.svd(cos)[0][:, d:]
    if np.linalg.norm(new[N - G :]) > TOL_GUARD:
        _, gs, gvh = np.linalg.svd(new[N - G :])
        new = new @ gvh[int(np.sum(gs > TOL_GUARD)) :].conj().T
    X = B @ np.concatenate([Kp[:N], new], axis=1)
    if np.abs(X - Kp @ (Kp.conj().T @ X)).max(initial=0.0) > TOL_RESIDUAL * s.max(initial=1.0):
        return d, Kp[: N - G]
    H = _fix_phases(new[: N - G])
    return d + H.shape[1], np.concatenate([Kp[: N - G], H], axis=1)


class KernelWalk:
    """The chain {0} = ker T^0 c ker T c ker T^2 c ... of one operator,
    certified lazily: ``kernels`` holds the powers walked so far, and
    ``kernel(m)`` walks on to m.  ker T^m = {x : T x in ker T^(m-1)} is a
    chain step through T's own section (``_chain_kernel``), so no power
    T^m is built.  Given the winding ``wind`` of T's symbol, dim ker T is
    at least ``ker_floor`` = max(-wind, 0), and exactly that for a scalar
    Toeplitz T (Coburn's lemma), which makes it ``ker_bound``; with no
    winding the floor is 0 and there is no bound.  The bound of ker T^m
    for m >= 2 is dim ker T^(m-1) + dim ker T.  Each basis extends the
    one before: the first dim ker T^(m-1) columns of ker T^m's are
    ker T^(m-1)'s, zero-padded, so H_m is a column slice; a kernel
    accepted at its bound says so (``at_bound``), so the step past it can
    be a layer step.  Every step reads T's sections through the walk's
    two caches, so each window is read once: nullity
    (``_section_nullity``) and full SVD (``_factor_section``, the last
    two held, as a power checked at 2N and accepted at N starts the next
    at N)."""

    def __init__(self, T: BandedOperator, wind: int | None = None):
        self.T, self.ker_floor = T, 0 if wind is None else max(-wind, 0)
        toeplitz = wind is not None and T._tail_params() == (0, 1)
        self.ker_bound = self.ker_floor if toeplitz else None
        self.factor = lru_cache(maxsize=2)(lambda n: _factor_section(T, n))
        self.nullity = cache(lambda n: _section_nullity(T, n))
        G = max(DEFAULT_G, T.bandwidth)
        N0 = max(DEFAULT_N, 2 * G)
        self.kernels = [StabilizedSubspace(np.zeros((N0 - G, 0)), 0, TruncationWindow(N0, G))]

    def kernel(self, m: int) -> StabilizedSubspace:
        """Certified orthonormal basis of ker T^m, nested [H_1 | ... | H_m]."""
        if m < 0:
            raise FormatError(f"kernels of powers need m >= 0, got {m}")
        kernels = self.kernels
        while len(kernels) <= m:
            bound = kernels[-1].dim + kernels[1].dim if len(kernels) > 1 else self.ker_bound
            kernels.append(_chain_kernel(self.T, kernels[-1], bound, self))
        return kernels[m]


def _chain_kernel(
    T: BandedOperator, prev: StabilizedSubspace, bound: int | None, walk: KernelWalk
) -> StabilizedSubspace:
    """ker T^m from ker T^(m-1) = ``prev``, from prev's window on, through
    the section caches of T's ``walk``.

    Every vector found has T^m x = 0 within the residual, so a count
    equal to ``bound`` (an upper bound on dim ker T^m, or None) is
    accepted at N, and one above it raises NotStabilized.  Any other
    count waits for N and 2N to agree, N doubling up to
    max(MAX_SECTION, N).  When prev is {0} the step is null(B), taken
    as it is; unless the walk's ``ker_floor`` (which a bound from the
    winding equals) is positive, its singular values come first, and a
    raw nullity of 0 counts 0 unfactored (factored, it counts 0 too).  A
    raw 2N nullity of d confirms d (the d window-N vectors, zero-padded,
    span the 2N null space).

    At prev's own window a step is a layer step (``_preimage_kernel``)
    when prev reached its bound there and the section has dim ker T raw
    null vectors: every preimage count is at most dim ker T^(m-2) plus the
    raw nullity, so prev's count at that bound shows that the step before
    cut no direction, and prev spans every preimage of ker T^(m-2).  Only
    its newest layer, dim ker T wide, then has new preimages.  Every other
    step is a full step.
    """
    G, N = prev.window.G, prev.window.N
    found = {}

    def at(n):
        if n not in found:
            if not prev.dim and not walk.ker_floor and not walk.nullity(n):
                found[n] = 0, np.zeros((n - G, 0), dtype=T.section(0, 0).dtype)
            else:
                fact = walk.factor(n)
                layer = walk.kernels[1].dim if prev.at_bound and n == prev.window.N else 0
                found[n] = _preimage_kernel(fact, prev.basis, G, layer if layer == fact[6].shape[1] else 0)
        return found[n]

    cap = max(MAX_SECTION, N)
    while N <= cap:
        d, basis = at(N)
        if bound is not None and d > bound:
            raise NotStabilized(
                f"section size {N} certifies {d} kernel vectors, above the bound "
                f"{bound} on their number: the bound, or a count it rests on, is wrong"
            )
        if d == bound or (not prev.dim and walk.nullity(2 * N) == d) or d == at(2 * N)[0]:
            return StabilizedSubspace(basis, d, TruncationWindow(N, G), d == bound)
        N *= 2
    raise NotStabilized(
        f"kernel dimension kept changing up to section size {cap} "
        f"(last dims {d} vs {at(N)[0]})"
    )


def symbol_winding(T: BandedOperator) -> int:
    """Winding number of det(symbol of T) around 0 on the unit circle.

    Past its prefixes T is block Toeplitz with P x P blocks, P the lcm of
    the diagonal periods; block (I, J) is the coefficient A_(I-J) of the
    symbol Phi(z) = sum_k A_k z^k, so S* has symbol 1/z.  T is Fredholm
    iff det Phi has no zero on |z| = 1, and then index T = -winding
    (Gohberg-Krein); the prefixes are finite rank and change neither.

    det Phi is a trigonometric polynomial of degree n <= K*P, K the
    block bandwidth.  Sampled at M roots of unity with
    min|det| > 4 pi n / M * max|det|, Bernstein's inequality keeps it
    inside the disc |w - det(sample)| < |det(sample)| up to the next
    sample, so it has no zero there and the summed principal phase steps
    are exactly 2 pi * winding.  PreconditionError when
    min|det| <= TOL_CIRCLE * max|det| (not Fredholm); NotStabilized when
    MAX_SYMBOL_SAMPLES samples decide neither.
    """
    pre, P = T._tail_params()
    K = -(-T.bandwidth // P)
    ks = np.arange(-K, K + 1)
    s0 = pre + K * P  # block row s0 + k*P stays past every prefix for k >= -K
    # A_k is the P rows from s0 + k*P of the P columns from s0; A_-K's start at pre
    blocks = T.section(s0 + (K + 1) * P, s0 + P)[pre:, s0:].reshape(2 * K + 1, P, P)
    M = SYMBOL_SAMPLES
    while M <= MAX_SYMBOL_SAMPLES:
        coeffs = np.zeros((M, P, P), dtype=complex)
        np.add.at(coeffs, ks % M, blocks)
        # M * ifft evaluates sum_k A_k z^k at z = exp(2 pi i j / M)
        det = np.linalg.det(M * np.fft.ifft(coeffs, axis=0))
        size = np.abs(det)
        lo, hi = float(size.min()), float(size.max())
        if lo <= TOL_CIRCLE * hi:
            raise PreconditionError(
                f"det of the symbol vanishes on the unit circle (min {lo:.3e}, "
                f"max {hi:.3e}): the operator is not Fredholm"
            )
        if lo > 4 * np.pi * K * P / M * hi:
            return int(round(np.angle(np.roll(det, -1) / det).sum() / (2 * np.pi)))
        M *= 2
    raise NotStabilized(
        f"det of the symbol comes within {lo / hi:.3e} of zero on the unit "
        f"circle; {MAX_SYMBOL_SAMPLES} samples cannot decide Fredholmness"
    )


@dataclass(frozen=True)
class IndexCertificate:
    index: int
    dim_ker: int
    dim_coker: int
    ker: StabilizedSubspace
    coker: StabilizedSubspace


def fredholm_index_banded(T: BandedOperator) -> IndexCertificate:
    """dim ker T - dim ker T*, both sides certified by stabilized windows.

    Fredholmness comes from the symbol (``symbol_winding``), which raises
    PreconditionError for a non-Fredholm operator; the cokernel is the
    kernel of the adjoint.  dim ker T >= max(-wind, 0) and dim ker T* >=
    max(wind, 0), with equality for a scalar Toeplitz T (Coburn's lemma):
    the bounds at which each kernel is accepted without the 2N check
    (each side's ``KernelWalk`` takes its winding).  A side above its
    bound raises NotStabilized; one below it takes the N/2N check, and its
    count stands even if it disagrees.
    """
    wind = symbol_winding(T)
    ker, coker = KernelWalk(T, wind).kernel(1), KernelWalk(T.adjoint(), -wind).kernel(1)
    return IndexCertificate(
        index=ker.dim - coker.dim,
        dim_ker=ker.dim,
        dim_coker=coker.dim,
        ker=ker,
        coker=coker,
    )

