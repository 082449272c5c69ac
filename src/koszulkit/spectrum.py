"""Joint spectra of commuting matrix tuples and polynomial calculus.

For commuting matrices the joint spectrum is the multiset of joint
eigenvalues.  It is computed by refinement: split the space into the
generalized eigenspaces of the first operator (deterministically ordered
by (real part, imaginary part)), compress the remaining operators onto
each invariant subspace, and recurse.  Total multiplicity always equals
the space dimension.

Each generalized eigenspace ker (A - lam I)^d is the kernel chain
ker B c ker B^2 c ... of B = A - lam I stopped at its ascent, the first
power whose kernel does not grow, so a spurious candidate costs one
elimination and a semisimple eigenvalue one product.

Exact mode requires the eigenvalues to be Gaussian rationals: candidate
values are extracted in floating point, snapped to small rationals, and
then every candidate is verified exactly (its generalized eigenspace is
computed with exact arithmetic); if the verified multiplicities do not
exhaust the space, DeflationFailure is raised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DeflationFailure, PreconditionError
from .koszul import CommutingTuple, cohomology, validate_tuple
from .linalg import Mat, kernel_basis, solve
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


def _snap_rational(x: float) -> Fraction:
    return Fraction(x).limit_denominator(SNAP_DENOMINATOR)


def _exact_eig_candidates(A: Mat):
    """Gaussian-rational candidates for the eigenvalues of A."""
    if A.rows == 0:
        return []
    approx = np.linalg.eigvals(A.to_numpy())
    cands = []
    for z in approx:
        lam = GaussianRational(_snap_rational(float(z.real)), _snap_rational(float(z.imag)))
        if lam not in cands:
            cands.append(lam)
    return sorted(cands, key=_sort_key)


def _float_eig_clusters(A: Mat, tol: float):
    vals = sorted(np.linalg.eigvals(A.to_numpy()), key=lambda z: (z.real, z.imag))
    reps = []
    for z in vals:
        if not any(abs(z - r) <= tol for r in reps):
            reps.append(z)
    return reps


def _compress(mats, E: Mat, tol=None):
    """Coordinates of each operator restricted to the invariant span of E."""
    out = []
    for M in mats:
        C = solve(E, M @ E, tol)
        if C is None:
            raise DeflationFailure(
                "subspace expected to be invariant was not; eigenspace "
                "extraction is below the conditioning threshold"
            )
        out.append(C)
    return out


def _generalized_eigenspace(A: Mat, lam, tol=None) -> Mat:
    """Basis of ker B^d, B = A - lam I and d = dim A, from the kernel
    chain of B stopped at its ascent; in exact mode the same matrix as
    ``kernel_basis(mat_power(B, d))``, as that basis depends only on the
    kernel."""
    B = A.minus_scalar(lam)
    E, P = kernel_basis(B, tol), B
    while 0 < E.cols < A.rows:
        P = P @ B
        F = kernel_basis(P, tol)
        if F.cols == E.cols:
            break
        E = F
    return E


def _joint_points(mats, dim: int, mode: str):
    if not mats:
        return [((), dim)]
    A = mats[0]
    scale = max(A.max_abs(), 1.0)
    if mode == EXACT:
        cands = _exact_eig_candidates(A)
    else:
        cands = _float_eig_clusters(A, DEFLATION_TOL * scale)
    tol = DEFLATION_TOL if mode == FLOAT else None
    pts = []
    total = 0
    for lam in cands:
        E = _generalized_eigenspace(A, lam, tol)
        e = E.cols
        if e == 0:
            continue
        rest = _compress(mats[1:], E, tol)
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
