"""Joint spectra of commuting matrix tuples and polynomial calculus.

For commuting matrices the joint spectrum is the multiset of joint
eigenvalues.  It is computed by refinement: split the space into the
generalized eigenspaces of the first operator, compress the remaining
operators onto each invariant subspace, and recurse.  Points are ordered
by (real part, imaginary part), and their multiplicities always sum to
the space dimension.

Exact eigenvalues come per strongly connected block of A's nonzero pattern
(``linalg.gaussian_eigenvalues``): a 1 x 1 block's entry, or the Gaussian-integer
roots of det(zI - LA), L the lcm of a larger block A's denominators, divided
by L and verified exactly with their multiplicities: no denominator cap, no
tolerance.  If the multiplicities fall short of the dimension, some
eigenvalue is not Gaussian rational or its float root did not round to
it, and DeflationFailure is raised.  Float mode tries every eigenvalue
cluster, so that over-coverage raises it too.

Each generalized eigenspace ker (A - lam I)^d is ``linalg.kernel_chain``
of B = A - lam I, stopped once the kernel fills lam's multiplicity (exact
mode; at the first kernel when lam is semisimple) or at its ascent.
Exact mode runs it only to compress the other operators onto it, by
reading rows: not for the last operator, nor for a lone eigenvalue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import DeflationFailure, PreconditionError
from .koszul import CommutingTuple, cohomology, validate_tuple
from .linalg import Mat, compress, gaussian_eigenvalues, kernel_chain
from .polymap import PolyMap
from .scalars import EXACT, FLOAT, as_scalar

#: float-mode eigenspace extraction threshold
DEFLATION_TOL = 1e-8


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


def _float_eig_clusters(A: Mat, tol: float):
    vals = sorted(np.linalg.eigvals(A.to_numpy()), key=lambda z: (z.real, z.imag))
    reps = []
    for z in vals:
        if not any(abs(z - r) <= tol for r in reps):
            reps.append(z)
    return reps


def _joint_points(mats, dim: int, mode: str):
    if not mats:
        return [((), dim)]
    A, rest = mats[0], mats[1:]
    if mode == EXACT:
        tol, eigs = None, gaussian_eigenvalues(A)
        covered = sum(m for _, m in eigs)
        if covered < dim:
            raise DeflationFailure(
                f"exact eigenvalues cover {covered} of {dim} dimensions; the others are "
                "not Gaussian rational, or their float roots did not round to them"
            )
    else:
        tol = DEFLATION_TOL
        eigs = [(lam, dim) for lam in _float_eig_clusters(A, tol * max(A.max_abs(), 1.0))]
    pts, total = [], 0
    for lam, room in eigs:
        if mode == EXACT and (room == dim or not rest):
            # an exact generalized eigenspace has dimension room; its basis
            # is needed only to compress the rest, and is I when room = dim
            e, comp = room, rest
        else:
            E = kernel_chain(A.minus_scalar(lam), room, tol)
            e = E.cols
            if e == 0:
                continue
            comp = compress(rest, E, tol)
        for tail, mult in _joint_points(comp, e, mode):
            pts.append(((lam,) + tail, mult))
        total += e
    if total != dim:
        raise DeflationFailure(
            f"joint eigenvalue extraction covered {total} of {dim} dimensions; "
            "eigenspace conditioning below threshold"
        )
    return pts


def joint_spectrum(T: CommutingTuple) -> JointSpectrum:
    """Joint eigenvalues of T with multiplicities summing to d: every level
    of the refinement covers its dimension, and merging points keeps the
    sum."""
    pts = _joint_points(list(T.matrices), T.d, T.mode)
    merged = {}
    for point, mult in pts:
        merged[point] = merged.get(point, 0) + mult
    ordered = sorted(merged.items(), key=lambda kv: tuple(_sort_key(z) for z in kv[0]))
    return JointSpectrum(tuple(SpectrumPoint(p, m) for p, m in ordered), T.d, T.mode)


def apply_poly_map(f: PolyMap, T: CommutingTuple) -> CommutingTuple:
    """The tuple (f_1(T), ..., f_m(T)).  Polynomials in one exact commuting
    tuple commute exactly, so only a float one is checked again."""
    cache = {}
    mats = tuple(c.eval_matrices(list(T.matrices), cache) for c in f.components)
    return CommutingTuple(len(mats), T.d, mats, T.mode, checked=len(mats) if T.mode == EXACT else 0)


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
) -> bool:
    """Check that applying an origin-only-vanishing map keeps T invertible.

    Preconditions: T is invertible (verified via cohomology) and the zero
    set of f contains no nonzero point.  The latter is the caller's
    claim; it is spot-checked at 1,000 random points.  A witness
    that additionally lies in the joint spectrum of T refutes the
    caller's assertion in the way that matters and raises
    PreconditionError; a witness off the spectrum is harmless (the
    spectral-mapping argument only sees the zero set on the spectrum).
    With the preconditions in force, a False return value is a bug.
    """
    if not cohomology(T).invertible:
        raise PreconditionError("tuple is not invertible")
    witness = f.nonzero_vanishing_witness(rng if rng is not None else random.Random(0))
    if witness is not None and point_in_spectrum(T, witness):
        raise PreconditionError(
            f"map vanishes at the spectrum point {witness!r}; the "
            "origin-only-vanishing assertion fails where it matters"
        )
    return cohomology(apply_poly_map(f, T)).invertible
