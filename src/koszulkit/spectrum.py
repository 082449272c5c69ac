"""Joint spectra of commuting matrix tuples and polynomial calculus.

For commuting matrices the joint spectrum is the multiset of joint
eigenvalues.  It is computed by refinement: split the space into the
generalized eigenspaces of the first operator, compress the remaining
operators onto each invariant subspace, and recurse.  Points are ordered
by (real part, imaginary part), and their multiplicities always sum to
the space dimension.

Exact mode requires the eigenvalues to be Gaussian rationals: candidate
values are extracted in floating point, snapped in integers to rationals
with denominator at most SNAP_DENOMINATOR, and verified exactly, simplest
(smallest denominator) first, until the verified generalized eigenspaces
cover the space; they form a direct sum, so later candidates have none.
If they never cover it, DeflationFailure is raised.  Float mode tries
every cluster, so that over-coverage raises it too.

Each generalized eigenspace ker (A - lam I)^d is ``linalg.kernel_chain``
of B = A - lam I: the chain ker B c ker B^2 c ... stopped at its ascent
(the first power whose kernel does not grow) or once the kernel fills the
dimensions left, so a spurious candidate costs one elimination.  Exact
operators are compressed onto it by reading rows, without elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import DeflationFailure, PreconditionError
from .koszul import CommutingTuple, cohomology, validate_tuple
from .linalg import Mat, compress, kernel_chain
from .polymap import PolyMap
from .scalars import EXACT, FLOAT, GaussianRational, as_scalar

#: float-mode eigenspace extraction threshold
DEFLATION_TOL = 1e-8

#: denominator cap when snapping float eigenvalues to rationals
SNAP_DENOMINATOR = 10**6


@dataclass(frozen=True)
class SpectrumPoint:
    point: tuple  # n scalars
    multiplicity: int

    def as_complex(self) -> tuple:
        return tuple(as_scalar(z, FLOAT) for z in self.point)


@dataclass(frozen=True)
class JointSpectrum:
    points: tuple  # SpectrumPoint, sorted
    dimension: int
    mode: str

    def distinct(self) -> tuple:
        return tuple(p.as_complex() for p in self.points)


def _sort_key(z) -> tuple:
    c = as_scalar(z, FLOAT)
    return (c.real, c.imag)


def _snap_rational(x: float) -> tuple:
    """(p, q) with p/q = ``Fraction(x).limit_denominator(SNAP_DENOMINATOR)``,
    tie rule included, from the continued fraction of x in integers."""
    n, d = x.as_integer_ratio()
    if d <= SNAP_DENOMINATOR:
        return n, d
    p0, q0, p1, q1, num, den = 0, 1, 1, 0, n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > SNAP_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (SNAP_DENOMINATOR - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p2/q2 - n/d|, cross-multiplied
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


def _exact_eig_candidates(A: Mat):
    """Gaussian-rational candidates for the eigenvalues of A, each once,
    simplest first: by denominator, then real and imaginary part."""
    if A.rows == 0:
        return []
    cands = {}
    for z in np.linalg.eigvals(A.to_numpy()):
        p, q = _snap_rational(float(z.real))
        r, s = _snap_rational(float(z.imag))
        lam = GaussianRational.from_ints(p * s, r * q, q * s)
        cands.setdefault((lam.a, lam.b, lam.d), lam)
    return sorted(cands.values(), key=lambda lam: (lam.d, _sort_key(lam)))


def _float_eig_clusters(A: Mat, tol: float):
    vals = sorted(np.linalg.eigvals(A.to_numpy()), key=lambda z: (z.real, z.imag))
    reps = []
    for z in vals:
        if not any(abs(z - r) <= tol for r in reps):
            reps.append(z)
    return reps


def _generalized_eigenspace(A: Mat, lam, tol=None, room=None) -> Mat:
    """Basis of ker B^d, B = A - lam I and d = dim A, given ``room``
    (default d), a bound on dim ker B^d; in exact mode the same matrix as
    ``kernel_basis(mat_power(B, d))``."""
    return kernel_chain(A.minus_scalar(lam), A.rows if room is None else room, tol)


def _joint_points(mats, dim: int, mode: str):
    if not mats:
        return [((), dim)]
    A = mats[0]
    if mode == EXACT:
        cands = _exact_eig_candidates(A)
    else:
        cands = _float_eig_clusters(A, DEFLATION_TOL * max(A.max_abs(), 1.0))
    tol = DEFLATION_TOL if mode == FLOAT else None
    pts = []
    total = 0
    for lam in cands:
        # exact generalized eigenspaces form a direct sum: this one has
        # at most dim - total dimensions, and none once that is 0
        room = dim - total if mode == EXACT else dim
        if room == 0:
            break
        E = _generalized_eigenspace(A, lam, tol, room)
        e = E.cols
        if e == 0:
            continue
        rest = compress(mats[1:], E, tol)
        for tail, mult in _joint_points(rest, e, mode):
            pts.append(((lam,) + tail, mult))
        total += e
    if total != dim:
        raise DeflationFailure(
            f"joint eigenvalue extraction covered {total} of {dim} dimensions"
            + (
                "; eigenvalues are not Gaussian rational within the snap bound"
                if mode == EXACT
                else "; eigenspace conditioning below threshold"
            )
        )
    return pts


def joint_spectrum(T: CommutingTuple) -> JointSpectrum:
    """Joint eigenvalues of T with multiplicities summing to d."""
    pts = _joint_points(list(T.matrices), T.d, T.mode)
    merged = {}
    for point, mult in pts:
        merged[point] = merged.get(point, 0) + mult
    ordered = sorted(merged.items(), key=lambda kv: tuple(_sort_key(z) for z in kv[0]))
    points = tuple(SpectrumPoint(p, m) for p, m in ordered)
    if sum(p.multiplicity for p in points) != T.d:
        raise DeflationFailure(f"joint multiplicities do not sum to the dimension {T.d}")
    return JointSpectrum(points, T.d, T.mode)


def apply_poly_map(f: PolyMap, T: CommutingTuple) -> CommutingTuple:
    """The tuple (f_1(T), ..., f_m(T)); commutes by construction."""
    cache = {}
    mats = [c.eval_matrices(list(T.matrices), cache) for c in f.components]
    return validate_tuple(mats)


def _match_sets(left, right, tol: float) -> bool:
    def close(a, b):
        return all(abs(x - y) <= tol for x, y in zip(a, b))

    return all(any(close(a, b) for b in right) for a in left) and all(
        any(close(b, a) for a in left) for b in right
    )


def spectral_mapping_check(f: PolyMap, T: CommutingTuple, tol: float) -> bool:
    """True iff f(joint spectrum of T) equals the joint spectrum of f(T).

    Compared as sets (not multisets), coordinatewise within tol.
    """
    sigma = joint_spectrum(T)
    mapped = {
        tuple(as_scalar(v, FLOAT) for v in f.eval_point(p.point))
        for p in sigma.points
    }
    sigma_f = joint_spectrum(apply_poly_map(f, T))
    return _match_sets(list(mapped), list(sigma_f.distinct()), tol)


def point_in_spectrum(T: CommutingTuple, z) -> bool:
    """Whether z lies in the joint spectrum, decided via cohomology of z - T."""
    shifted = [-M.minus_scalar(zi) for zi, M in zip(z, T.matrices)]
    return not cohomology(validate_tuple(shifted)).invertible


def poly_map_invertibility_check(
    T: CommutingTuple,
    f: PolyMap,
    rng: random.Random | None = None,
    samples: int = 1000,
) -> bool:
    """Check that applying an origin-only-vanishing map keeps T invertible.

    Preconditions: T is invertible (verified via cohomology) and the zero
    set of f contains no nonzero point.  The latter is the caller's
    claim; it is spot-checked at ``samples`` random points.  A witness
    that additionally lies in the joint spectrum of T refutes the
    caller's assertion in the way that matters and raises
    PreconditionError; a witness off the spectrum is harmless (the
    spectral-mapping argument only sees the zero set on the spectrum).
    With the preconditions in force, a False return value is a bug.
    """
    if not cohomology(T).invertible:
        raise PreconditionError("tuple is not invertible")
    witness = f.nonzero_vanishing_witness(
        rng if rng is not None else random.Random(0), samples
    )
    if witness is not None and point_in_spectrum(T, witness):
        raise PreconditionError(
            f"map vanishes at the spectrum point {witness!r}; the "
            "origin-only-vanishing assertion fails where it matters"
        )
    return cohomology(apply_poly_map(f, T)).invertible
