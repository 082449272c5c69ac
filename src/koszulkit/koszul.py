"""Koszul complexes of commuting matrix tuples.

For a commuting tuple T = (T_1, ..., T_n) on a d-dimensional space, the
complex lives on X (x) L^p where L^p is the space of p-forms in n
generators.  The differential sends x (x) w to sum_i T_i x (x) e_i ^ w;
in the lexicographic monomial basis its block at (e_i ^ w, w) is
sign * T_i with sign = (-1)^(number of indices in w smaller than i).

Cohomology dimensions, the alternating-sum index, augmentation by one
more commuting operator, and the induced action of a commuting operator
on cohomology are all computed here.  The degreewise dimension identity

    dim H^p = (cols D^p - rank D^p) - rank D^(p-1)

is taken with D^(-1) and D^n read as zero maps.  On finite-dimensional
spaces the index is always 0 (Euler characteristic): the alternating sum
of these dimensions telescopes to d * sum_p (-1)^p C(n, p) = 0 whatever
the ranks, float ones included.

Exact cohomology and augment_les run on V_0, the joint generalized
eigenspace at 0: H^p(T; V) = H^p(T; V_0), as V = V_0 (+) V' is invariant
and on each joint generalized eigenspace in V' some T_i is invertible, so
the complex is exact there (J. L. Taylor, J. Funct. Anal. 6, 1970).  An
invertible tuple has V_0 = 0 and builds no complex.  Float tuples are not
localised: a generalized kernel under a relative rank tolerance is fragile.

Commutation is checked in one place, the CommutingTuple constructor.
Each block of D^(p+1) D^p is 0 or +-(T_i T_j - T_j T_i), so the chain
identity D^(p+1) D^p = 0 holds exactly for every exact CommutingTuple,
and koszul_complex does not multiply differentials to check it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import combinations
from math import comb

from .errors import DegreeError, ModeMismatch, NonCommuting, NotStabilized, ShapeError
from .linalg import (
    Mat,
    block_diag_copies,
    commutator,
    compress,
    independent_columns,
    kernel_basis,
    kernel_chain,
    mat_block,
    rank,
    solve,
)
from .scalars import EXACT

#: default relative commutator tolerance in float mode
TOL_COMM = 1e-10


@dataclass(frozen=True)
class CommutingTuple:
    """n >= 1 commuting d x d matrices sharing one arithmetic mode.

    The constructor checks all of it, so every instance commutes: exact
    commutators must be zero (is_zero()); float ones may have Frobenius
    norm up to TOL_COMM times the largest ||T_i|| (at least 1), and a NaN
    norm (from overflowing products) fails.  The first ``checked``
    matrices are taken to commute already, so only the pairs with a later
    matrix are checked; ``checked`` is not stored.
    """

    n: int
    d: int
    matrices: tuple
    mode: str
    checked: InitVar[int] = 0

    def __post_init__(self, checked):
        mats, d = self.matrices, self.d
        if self.n != len(mats):
            raise ShapeError(f"declared {self.n} operators, got {len(mats)}")
        if not mats:
            raise ShapeError("empty tuple")
        for k, M in enumerate(mats):
            if M.mode != self.mode:
                raise ModeMismatch(f"operator {k} has mode {M.mode}, expected {self.mode}")
            if M.rows != M.cols or M.rows != d:
                raise ShapeError(f"operator {k} is {M.rows}x{M.cols}, expected {d}x{d}")
        exact = self.mode == EXACT
        tol = 0.0 if exact else TOL_COMM * max([1.0] + [M.fro_norm() for M in mats])
        for k in range(checked, self.n):
            for i in range(k):
                C = commutator(mats[i], mats[k])
                if not (C.is_zero() if exact else C.fro_norm() <= tol):
                    nrm = C.fro_norm()
                    raise NonCommuting(
                        f"operators {i} and {k} do not commute (commutator norm {nrm:.3e})",
                        pair=(i, k),
                        norm=nrm,
                    )


@dataclass(frozen=True)
class KoszulComplex:
    tuple: CommutingTuple
    differentials: tuple  # D^0 ... D^(n-1)


@dataclass(frozen=True)
class CohomologyReport:
    dims: tuple
    index: int
    invertible: bool


@dataclass(frozen=True)
class LESReport:
    """Dimensions of the augmented tuple computed two independent ways."""

    dims_direct: tuple
    dims_sequence: tuple
    agree: bool  # always True: augment_les raises NotStabilized otherwise
    index: int
    base_dims: tuple
    induced_ranks: tuple
    iso_by_degree: tuple
    all_iso: bool


def form_basis(n: int, p: int) -> tuple:
    """The strictly increasing p-subsets of 1..n, in lexicographic order."""
    if not 0 <= p <= n:
        raise DegreeError(f"degree {p} outside 0..{n}")
    return tuple(combinations(range(1, n + 1), p))


def validate_tuple(matrices) -> CommutingTuple:
    """The tuple of ``matrices``, checked by the CommutingTuple constructor."""
    mats = tuple(matrices)
    if not mats:
        raise ShapeError("empty tuple")
    return CommutingTuple(len(mats), mats[0].rows, mats, mats[0].mode)


def augment_tuple(T: CommutingTuple, S: Mat) -> CommutingTuple:
    """The (n+1)-tuple (T, S).  Only the pairs with S are checked; T's
    pairs were checked when T was built."""
    return CommutingTuple(T.n + 1, T.d, T.matrices + (S,), T.mode, checked=T.n)


def koszul_differential(T: CommutingTuple, p: int) -> Mat:
    """Matrix of the degree-p differential, d*C(n,p+1) rows by d*C(n,p) cols.

    For each i in the (p+1)-form tau, the block at (tau, tau without i) is
    (-1)^k T_i, with k the position of i in tau, which counts the indices
    of tau without i below i: the module docstring's sign."""
    if not 0 <= p <= T.n - 1:
        raise DegreeError(f"differential degree {p} outside 0..{T.n - 1}")
    col = {w: c for c, w in enumerate(form_basis(T.n, p))}
    zero = Mat.zeros(T.d, T.d, T.mode)
    grid = []
    for tau in form_basis(T.n, p + 1):
        row = [zero] * len(col)
        for k, i in enumerate(tau):
            M = T.matrices[i - 1]
            row[col[tau[:k] + tau[k + 1 :]]] = -M if k % 2 else M
        grid.append(row)
    return mat_block(grid)


def koszul_complex(T: CommutingTuple) -> KoszulComplex:
    return KoszulComplex(T, tuple(koszul_differential(T, p) for p in range(T.n)))


def _boundary_maps(T: CommutingTuple) -> tuple:
    """(D^-1, D^0, ..., D^(n-1), D^n) from one build of the complex, with
    the zero maps D^-1: 0 -> X and D^n: X (x) L^n -> 0 at its two ends;
    D^p is entry p + 1."""
    return (Mat.zeros(T.d, 0, T.mode), *koszul_complex(T).differentials, Mat.zeros(0, T.d, T.mode))


def _at_zero(T: CommutingTuple, n: int):
    """Exact T compressed onto V_0, the joint generalized eigenspace at 0 of
    its first n matrices, or None when V_0 = 0.  Each generalized kernel is
    invariant under every matrix, which commutes with the one it is of."""
    mats, d = T.matrices, T.d
    if any(rank(M) == d for M in mats[:n]):
        return None
    for k in range(n):
        E = kernel_chain(mats[k], d)
        if E.cols == 0:
            return None
        if E.cols < d:
            mats, d = tuple(compress(mats, E)), E.cols
    return CommutingTuple(T.n, d, mats, T.mode, checked=T.n)


def cohomology(T: CommutingTuple, tol_rank: float | None = None) -> CohomologyReport:
    """Cohomology dimensions, index, and whether the tuple is invertible.
    An exact tuple is localised to V_0 first (module docstring); a float
    tuple is not."""
    L = _at_zero(T, T.n) if T.mode == EXACT else T
    if L is None:
        return CohomologyReport((0,) * (T.n + 1), 0, True)
    return _cohomology(_boundary_maps(L), tol_rank)


def _cohomology(D, tol_rank) -> CohomologyReport:
    dims = []
    prev_rank = 0
    for Dp in D[1:]:
        rp = rank(Dp, tol_rank)
        dims.append(Dp.cols - rp - prev_rank)
        prev_rank = rp
    idx = sum((-1) ** p * dim for p, dim in enumerate(dims))
    if any(dim < 0 for dim in dims):
        # impossible in exact mode; in float mode it means the rank
        # tolerance made inconsistent calls on adjacent differentials
        raise NotStabilized(
            f"rank tolerance produced a negative dimension in {dims}"
        )
    return CohomologyReport(
        dims=tuple(dims),
        index=idx,
        invertible=all(dim == 0 for dim in dims),
    )


def induced_map(S: Mat, T: CommutingTuple, p: int, tol_rank: float | None = None) -> Mat:
    """Matrix of the action of S on H^p(T) in a deterministic basis.

    Representatives are kernel-basis columns completing the image of the
    previous differential; the action is re-expressed modulo that image.
    """
    if not 0 <= p <= T.n:
        raise DegreeError(f"degree {p} outside 0..{T.n}")
    augment_tuple(T, S)
    return _induced_map(S, T, _boundary_maps(T), p, tol_rank)


def _induced_map(S: Mat, T: CommutingTuple, D, p: int, tol_rank) -> Mat:
    # one left-to-right column choice on [D^(p-1) | ker D^p]: pivots before
    # the split span the image, pivots after it represent H^p
    prev = D[p]
    both = mat_block([[prev, kernel_basis(D[p + 1], tol_rank)]])
    chosen = independent_columns(both, tol_rank)
    nim = sum(1 for j in chosen if j < prev.cols)
    h = len(chosen) - nim
    if h == 0:
        return Mat.zeros(0, 0, T.mode)
    basis, R = both.columns(chosen), both.columns(chosen[nim:])
    Sblk = block_diag_copies(S, comb(T.n, p))
    X = solve(basis, Sblk @ R, tol_rank)
    if X is None:
        raise NonCommuting(
            "induced action did not preserve the cohomology representatives; "
            "operator fails to commute within tolerance"
        )
    rows = [[X.at(nim + i, j) for j in range(h)] for i in range(h)]
    return Mat.from_rows(rows, T.mode)


def augment_les(T: CommutingTuple, S: Mat, tol_rank: float | None = None) -> LESReport:
    """Dimensions of the augmented tuple (T, S), two independent ways.

    (a) direct cohomology of the (n+1)-tuple; (b) splicing the long exact
    sequence: dim H^p(T,S) = dim coker(S on H^(p-1)) + dim ker(S on H^p).
    Both must agree, else NotStabilized (float rank decisions can split
    them); the report also says in which degrees the induced action is an
    isomorphism.  An exact (T, S) is first compressed onto V_0(T), which S
    preserves since it commutes with T, and both ways run there; a float
    one is not localised.
    """
    Tp = augment_tuple(T, S)
    if T.mode == EXACT:
        Tp = _at_zero(Tp, T.n)
        if Tp is None:
            zero = (0,) * (T.n + 2)
            return LESReport(zero, zero, True, 0, zero[1:], zero[1:], (True,) * (T.n + 1), True)
        T, S = CommutingTuple(T.n, Tp.d, Tp.matrices[:-1], T.mode, checked=T.n), Tp.matrices[-1]
    direct = _cohomology(_boundary_maps(Tp), tol_rank)
    D = _boundary_maps(T)
    base = _cohomology(D, tol_rank)
    ranks = [rank(_induced_map(S, T, D, p, tol_rank), tol_rank) for p in range(T.n + 1)]
    dims_seq = []
    for p in range(T.n + 2):
        coker_prev = (base.dims[p - 1] - ranks[p - 1]) if 1 <= p <= T.n + 1 else 0
        ker_here = (base.dims[p] - ranks[p]) if p <= T.n else 0
        dims_seq.append(coker_prev + ker_here)
    if direct.dims != tuple(dims_seq):
        raise NotStabilized(
            f"direct cohomology dims {list(direct.dims)} and long exact sequence "
            f"dims {dims_seq} disagree"
        )
    iso = tuple(ranks[p] == base.dims[p] for p in range(T.n + 1))
    return LESReport(
        dims_direct=direct.dims,
        dims_sequence=tuple(dims_seq),
        agree=True,
        index=direct.index,
        base_dims=base.dims,
        induced_ranks=tuple(ranks),
        iso_by_degree=iso,
        all_iso=all(iso),
    )
