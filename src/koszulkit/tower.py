"""Kernel towers, commutant block structure, and obstruction certificates.

For a Fredholm operator T of positive index the nested kernels
ker T c ker T^2 c ... never stop growing; the layers
H_n = ker T^n (-) ker T^(n-1) are pairwise orthogonal and nonzero, and
the compression A_n of T from H_n to H_(n-1) is injective, hence
invertible once the layer dimensions plateau (at a level n0).

Any operator K commuting with T leaves every ker T^n invariant and acts
on it block-lower-triangularly; its corner blocks X_n on H_n satisfy the
intertwining identity X_(n-1) A_n = A_n X_n, so beyond n0 they are all
similar.  If the pair (T, K) were invertible every X_n would be
invertible too, forcing ||K restricted to H_n|| >= ||X_n|| >= r with r
the (then positive) spectral radius of X_n0 -- a uniform lower bound on
infinitely many orthogonal layers, which no compact operator survives.
The certificate computed here reports exactly that chain: r, the
per-layer norms, and the verdict.

T and each K are compressed once onto the tower basis Q = [H_1 | ... | H_D]:
one apply gives W = op Q and B = Q* W, and every block (A_n, B_n, C_n for
T; X_n for K) is a slice of B.  The layers are read off a ``KernelWalk``
of T alone, the index being -winding; a growth table walks T and T* on
its own, with the index from the winding too (``ell2._chain_kernel`` says
when a chain step is a full or a layer step, ``ell2._preimage_kernel``
which SVDs each runs); here the only SVDs are a values-only one per A_n
tried for n0 and, per K, one batched over the layers for ||K restricted
to H_n||, the largest singular value of the H_n columns of W.  Every
level of K is checked in one array pass (``commutant_blocks``).

A certificate is a witness of the obstruction mechanism for the given K;
an "inconclusive" verdict (r ~ 0) only means this route does not apply
to that K, never that a perturbation exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    FormatError,
    IndexSignError,
    IndexZeroError,
    InvarianceViolation,
    NonCommuting,
    NotStabilized,
    PreconditionError,
)
from .ell2 import BandedOperator, KernelWalk, fredholm_index_banded, symbol_winding
from .koszul import cohomology, validate_tuple
from .linalg import Mat, kernel_basis, mat_power, rank, solve, spectral_radius
from .scalars import EXACT, as_scalar

TOL_LAYER = 1e-8
TOL_INVARIANCE = 1e-10
TOL_INTERTWINE = 1e-9
TOL_RADIUS = 1e-8
TOL_CHARPOLY = 1e-8


@dataclass(frozen=True)
class TowerLevel:
    n: int
    dim: int
    h_basis: np.ndarray  # (L, dim) orthonormal columns
    a_block: np.ndarray | None  # H_n -> H_(n-1), n >= 2
    b_block: np.ndarray | None  # H_n -> ker T^(n-2), n >= 2
    c_block: np.ndarray | None  # ker T^(n-1) -> ker T^(n-2), n >= 2


@dataclass(frozen=True)
class KernelTower:
    operator: BandedOperator
    levels: tuple  # TowerLevel for n = 1..depth
    kernel_dims: tuple  # dim ker T^n
    n0: int
    index: int  # -winding of T's symbol

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> TowerLevel:
        return self.levels[n - 1]

    def layer_dims(self) -> tuple:
        return tuple(lv.dim for lv in self.levels)


@dataclass(frozen=True)
class CommutantLevel:
    n: int
    x_block: np.ndarray  # H_n -> H_n
    invariance_residual: float
    intertwine_residual: float | None  # None at n = 1
    norm: float  # ||S restricted to H_n||


@dataclass(frozen=True)
class CommutantBlocks:
    levels: tuple
    charpoly_reference: np.ndarray
    charpoly_max_diff: dict
    similarity_certified: bool

    def level(self, n: int) -> CommutantLevel:
        return self.levels[n - 1]


@dataclass(frozen=True)
class ObstructionCertificate:
    r: float
    norms: dict  # level -> ||K restricted to H_n||
    verdict: str  # "obstructed" | "inconclusive"
    blocks: CommutantBlocks  # K in the tower bases


@dataclass(frozen=True)
class GrowthRow:
    m: int
    dim_ker: int
    dim_coker: int
    index: int
    exceeds: bool


@dataclass(frozen=True)
class GrowthTable:
    rows: tuple
    rank_bound: int
    base_index: int


@dataclass(frozen=True)
class PairCohomology:
    dims: tuple  # (h0, h1, h2)
    index: int


def _compress(op: BandedOperator, Q: np.ndarray):
    """W = op Q and B = Q* W for orthonormal columns Q, with one apply;
    W's support extends Q's, so Q* meets only its first len(Q) rows.

    W holds the images in full, so ||op restricted to a span of columns||
    is the largest singular value of the matching columns of W; every
    block of op between spans of columns is a slice of B.
    """
    W = op.apply(Q)
    return W, Q.conj().T @ W[: len(Q)]


def kernel_tower(T: BandedOperator, max_depth: int) -> KernelTower:
    """Layers H_n = ker T^n (-) ker T^(n-1) with compressions and n0.

    T must be Fredholm with index -wind > 0 by its symbol's winding (pass
    the adjoint to flip a negative index), so ker T* is never walked.  The
    kernels of the powers are walked lazily on a ``KernelWalk`` of T with
    Coburn's bound for a scalar Toeplitz T.  As index T^m = m index T and
    dim coker T^m never decreases, dim H_m >= index, and the walk stops
    (NotStabilized) at the first layer below it, and a layer larger than
    the one before raises too.  n0 is the first n >= p + 1, p the first
    level of the last layer size, with n + 2 <= depth and A_n, A_(n+1)
    invertible; past p every layer has one size, so these are square.  A
    depth below 4, which leaves no such n, fails before any section is
    computed.
    Every chain step appends its new directions, orthonormal and
    orthogonal to the kernel before it, to that kernel's basis, so the
    layers are orthonormal column slices of the last kernel's basis
    [H_1 | ... | H_D].
    """
    if max_depth < 4:
        raise _no_stabilization_level(max_depth)
    wind = symbol_winding(T)
    index = -wind
    if index <= 0:
        raise IndexSignError(
            f"kernel tower needs index > 0, got {index}; apply it to the adjoint instead"
        )
    walk = KernelWalk(T, wind)
    for n in range(1, max_depth + 1):
        dim = walk.kernel(n).dim - walk.kernels[n - 1].dim
        if dim < index:
            raise NotStabilized(
                f"layer {n} has dimension {dim}, below the index {index}; window too small"
            )
    # every chain step appends its layer: ker T^D's basis is [H_1 | ... | H_D]
    acc = walk.kernels[max_depth].basis
    off = [k.dim for k in walk.kernels]
    # T in the tower basis: on ker T^n = H_n + ker T^(n-1) it acts as
    # [[A_n, 0], [B_n, C_n]] into H_(n-1) + ker T^(n-2)
    _, TB = _compress(T, acc)
    levels = []
    for n in range(1, len(off)):
        H = acc[:, off[n - 1] : off[n]]
        blocks = (None, None, None)
        if n >= 2:
            prev, cur = slice(off[n - 2], off[n - 1]), slice(off[n - 1], off[n])
            resid = float(np.abs(TB[prev, : off[n - 1]]).max())
            if resid > TOL_INTERTWINE:
                raise NotStabilized(
                    f"triangular structure violated at level {n} (residual {resid:.3e})"
                )
            blocks = (TB[prev, cur], TB[: off[n - 2], cur], TB[: off[n - 2], : off[n - 1]])
        levels.append(TowerLevel(n, H.shape[1], H, *blocks))
    dims = [lv.dim for lv in levels]
    for n in range(2, max_depth):
        if dims[n] > dims[n - 1]:
            raise NotStabilized(
                f"layer dimension increased from level {n} to {n + 1}"
            )
    # no layer grows, so every layer from the first of the last size, p,
    # has that size, and every A_n with n > p is square
    p = dims.index(dims[-1]) + 1
    for n0 in range(p + 1, max_depth - 1):
        if all(np.linalg.svd(lv.a_block, compute_uv=False)[-1] > TOL_LAYER for lv in levels[n0 - 1 : n0 + 1]):
            break
    else:
        raise _no_stabilization_level(max_depth)
    return KernelTower(
        operator=T,
        levels=tuple(levels),
        kernel_dims=tuple(off[1:]),
        n0=n0,
        index=index,
    )


def _no_stabilization_level(max_depth: int) -> NotStabilized:
    return NotStabilized(
        f"no stabilization level found within depth {max_depth} "
        "(the last layer dimension on four levels p to p + 3, with A_n and "
        "A_(n+1) invertible for some n > p, is required); increase the depth"
    )


def _check_operator_commutes(T: BandedOperator, S: BandedOperator):
    # one encoding per operator: == is exact, and only an error needs T S - S T
    TS, ST = T * S, S * T
    if TS != ST:
        bound = (TS - ST).norm_bound()
        raise NonCommuting(
            f"operators do not commute (commutator norm bound {bound:.3e})",
            norm=bound,
        )


def commutant_blocks(tower: KernelTower, S: BandedOperator) -> CommutantBlocks:
    """Blocks of S in the bases of the tower of T = ``tower.operator``.

    Checks that S commutes with T, that S leaves each ker T^n invariant
    (projection residual), that the compression is block lower
    triangular (its upper-right corner, H_n's rows of ker T^(n-1)'s
    columns, vanishes), and measures the intertwining identity
    X_(n-1) A_n = A_n X_n at every level; beyond n0 the corner blocks
    must share their characteristic polynomial with the one at n0.  Each
    level also carries the norm of S restricted to H_n.  The first level
    that fails a check raises, its residual checked before its corner.

    One array pass serves every level.  ker T^n is the first hi columns,
    and R = W - Q B is orthogonal to span Q, so the residual
    ||W[:, :hi] - Q[:, :hi] B[:hi, :hi]|| of each level has its square
    ||R[:, :hi]||^2 + ||B[hi:, :hi]||^2, read off cumulative sums.  The
    corners' maxima come from one masked reduction of |B|.  The layers'
    columns of W, the X_n and the A_n are stacked, each zero-padded to
    the widest layer (which keeps a largest singular value and the
    products' blocks): one SVD gives the norms, one batched product the
    intertwining residuals, and one eigenvalue call the characteristic
    polynomials from n0 on.
    """
    _check_operator_commutes(tower.operator, S)
    Q = np.hstack([lv.h_basis for lv in tower.levels])
    W, B = _compress(S, Q)
    dims = tower.layer_dims()
    off = list(accumulate(dims, initial=0))
    hi, D = np.array(off[1:]), len(B)
    below = np.zeros((D + 1, D + 1))  # below[i, j] = ||B[i:, :j]||^2
    below[:D, 1:] = np.cumsum(np.cumsum(np.abs(B[::-1]) ** 2, axis=0)[::-1], axis=1)
    R = W.copy()
    R[: len(Q)] -= Q @ B
    r2, w2 = (np.cumsum(np.sum(np.abs(M) ** 2, axis=0))[hi - 1] for M in (R, W))
    inv = np.sqrt(r2 + below[hi, hi]) / np.maximum(1.0, np.sqrt(w2))
    # row n - 1 holds H_n's columns of Q, padded by -1 to the widest layer
    w = np.arange(max(dims))
    slots = np.where(w < np.array(dims)[:, None], np.array(off[:-1])[:, None] + w, -1)
    live = slots >= 0
    layer = np.repeat(np.arange(len(dims)), dims)
    rows = np.where(layer[:, None] > layer, np.abs(B), 0).max(axis=1, initial=0.0)
    corner = np.where(live, rows[slots], 0).max(axis=1)
    bad = (inv > TOL_INVARIANCE) | (corner > TOL_INVARIANCE)
    if bad.any():
        n = int(bad.argmax()) + 1
        if inv[n - 1] > TOL_INVARIANCE:
            raise InvarianceViolation(
                f"ker T^{n} is not invariant under the operator (residual {inv[n - 1]:.3e}); "
                "window too small or genuinely non-commuting"
            )
        raise InvarianceViolation(
            f"block upper-right corner at level {n} is {corner[n - 1]:.3e}, triangular structure violated"
        )
    padded = np.where(live, W[:, slots], 0)
    norms = np.linalg.svd(padded.transpose(1, 0, 2), compute_uv=False)[:, 0]
    X = np.where(live[:, :, None] & live[:, None, :], B[slots[:, :, None], slots[:, None, :]], 0)
    A = np.zeros_like(X[1:], np.result_type(B, *(lv.a_block for lv in tower.levels[1:])))
    for a, lv in zip(A, tower.levels[1:]):
        a[: lv.a_block.shape[0], : lv.dim] = lv.a_block
    inter = np.abs(X[:-1] @ A - A @ X[1:]).max(axis=(1, 2), initial=0.0)
    rest = zip(dims, inv.tolist(), [None] + inter.tolist(), norms.tolist())
    levels = tuple(CommutantLevel(n, X[n - 1, :d, :d], *r) for n, (d, *r) in enumerate(rest, 1))
    # np.poly's products of (z - root), one root at a time, for the corners
    # from n0 on, which all have n0's dimension
    n0, d0 = tower.n0, dims[tower.n0 - 1]
    roots = np.linalg.eigvals(X[n0 - 1 :, :d0, :d0])
    cps = np.zeros((len(roots), d0 + 1), dtype=complex)
    cps[:, 0] = 1
    for k in range(d0):
        cps[:, 1:] -= roots[:, k, None] * cps[:, :-1]
    diffs = dict(zip(range(n0 + 1, tower.depth + 1), np.abs(cps[1:] - cps[0]).max(axis=1).tolist()))
    certified = bool((inter <= TOL_INTERTWINE).all()) and all(v <= TOL_CHARPOLY for v in diffs.values())
    return CommutantBlocks(
        levels=levels,
        charpoly_reference=cps[0],
        charpoly_max_diff=diffs,
        similarity_certified=certified,
    )


def obstruction_certificate(
    tower: KernelTower, K: BandedOperator
) -> ObstructionCertificate:
    """Compactness obstruction for perturbing (T, 0) into an invertible pair.

    Takes the kernel tower of T (built by ``kernel_tower``, so the index
    is positive), compresses K onto it once, and reports r = spectral
    radius of the stabilized corner block together with the norms of K
    on every layer; the compression itself is returned as ``blocks``.
    Verdict "obstructed" means: were (T, K) an invertible commuting pair,
    K would be bounded below by r on infinitely many orthogonal nonzero
    layers and hence could not be compact.  It needs the corner blocks
    past n0 certified similar (``similarity_certified``).  Verdict
    "inconclusive" (r ~ 0, or no such certificate) means this route says
    nothing about the given K.
    """
    blocks = commutant_blocks(tower, K)
    x0 = blocks.level(tower.n0).x_block
    r = spectral_radius(Mat.from_numpy(x0))
    norms = {lv.n: lv.norm for lv in blocks.levels}
    obstructed = (
        blocks.similarity_certified
        and r > TOL_RADIUS
        and all(norms[n] >= r - TOL_RADIUS for n in range(tower.n0, tower.depth + 1))
    )
    return ObstructionCertificate(
        r=r,
        norms=norms,
        verdict="obstructed" if obstructed else "inconclusive",
        blocks=blocks,
    )


def growth_table(T: BandedOperator, powers, rank_bound: int) -> GrowthTable:
    """Kernel/cokernel growth of T^m against a finite-rank budget.

    For index(T) != 0 the dimensions grow linearly (index of T^m is
    m times the index of T), so any map of rank <= rank_bound on those
    spaces stops being an isomorphism as soon as a dimension exceeds the
    bound; the `exceeds` column marks where that happens.  The index of T
    is -wind by its symbol (as in ``kernel_tower``), and the table walks
    T and T* on its own two ``KernelWalk``s.  A row whose index
    dim_ker - dim_coker is not m times the index of T raises
    NotStabilized: a section undercounted one of its kernels.
    """
    powers = list(powers)
    if not powers or min(powers) < 0:
        raise FormatError(f"growth table needs powers m >= 0, got {powers}")
    if rank_bound < 0:
        raise FormatError(f"growth table needs rank_bound >= 0, got {rank_bound}")
    wind = symbol_winding(T)
    if wind == 0:
        raise IndexZeroError("growth table needs a nonzero index")
    index = -wind
    walks = (KernelWalk(T, wind), KernelWalk(T.adjoint(), -wind))
    kers, cokers = ({m: w.kernel(m) for m in powers} for w in walks)
    rows = []
    for m in powers:
        k, c = kers[m].dim, cokers[m].dim
        if k - c != m * index:
            raise NotStabilized(
                f"growth row m = {m} certifies index {k - c}, but index "
                f"multiplicativity gives m * index T = {m * index}"
            )
        rows.append(
            GrowthRow(
                m=m,
                dim_ker=k,
                dim_coker=c,
                index=k - c,
                exceeds=max(k, c) > rank_bound,
            )
        )
    return GrowthTable(rows=tuple(rows), rank_bound=rank_bound, base_index=index)


def augmented_pair_cohomology(T: BandedOperator, coeffs) -> PairCohomology:
    """Cohomology dimensions of the pair (T, p(T)) for p with p(0) = 0.

    Computed by splicing the augmentation sequence at one operator:
    with the induced actions of p(T) on ker T and on coker T,
    h0 = dim ker on ker T, h2 = dim coker on coker T, and h1 picks up
    both complementary terms.  The reported index is always 0.  T must be
    Fredholm (by its symbol, as in ``fredholm_index_banded``), else
    PreconditionError.
    """
    coeffs = list(coeffs)
    if coeffs and not as_scalar(coeffs[0], EXACT).is_zero():
        raise FormatError("polynomial must vanish at 0 (no constant term)")
    idx = fredholm_index_banded(T)
    pT = T.poly(coeffs)
    r0 = _float_matrix_rank(_compress(pT, idx.ker.basis)[1])
    r1 = _float_matrix_rank(_compress(pT, idx.coker.basis)[1])
    k, c = idx.dim_ker, idx.dim_coker
    h0 = k - r0
    h1 = (k - r0) + (c - r1)
    h2 = c - r1
    return PairCohomology(dims=(h0, h1, h2), index=h0 - h1 + h2)


def _float_matrix_rank(A: np.ndarray) -> int:
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > TOL_LAYER * s.max(initial=1.0)))


def kernel_restriction_check(Tm: Mat, Sm: Mat, n: int) -> bool:
    """For an invertible commuting matrix pair, S restricted to ker T^n
    must be an isomorphism of ker T^n; returns that verdict.

    Raises NonCommuting if the pair does not commute and
    PreconditionError when the pair is not invertible (checked through
    its cohomology).  With the preconditions in force, False is a bug.
    """
    pair = validate_tuple([Tm, Sm])
    if not cohomology(pair).invertible:
        raise PreconditionError("matrix pair is not invertible")
    K = kernel_basis(mat_power(Tm, n))
    if K.cols == 0:
        return True
    M = solve(K, Sm @ K)
    if M is None:
        raise InvarianceViolation(
            "restriction did not preserve the kernel; pair fails to commute"
        )
    return rank(M) == K.cols
