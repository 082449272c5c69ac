import random
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koszulkit.koszul as koszul_module
from koszulkit.errors import DeflationFailure, FormatError, PreconditionError, ShapeError
from koszulkit.koszul import validate_tuple
from koszulkit.linalg import Mat, compress, gaussian_eigenvalues, kernel_basis, kernel_chain, mat_power, solve
from koszulkit.polymap import Polynomial, PolyMap
from koszulkit.scalars import EXACT, FLOAT, GaussianRational, as_scalar
import koszulkit.linalg as linalg_module
import koszulkit.spectrum as spectrum_module
from koszulkit.spectrum import (
    apply_poly_map,
    joint_spectrum,
    point_in_spectrum,
    poly_map_invertibility_check,
    spectral_mapping_check,
)

from oracles import oracle_charpoly
from randgen import get_rng, random_commuting_tuple, random_poly_map, random_unimodular


def diag(*vals):
    d = len(vals)
    return Mat.from_rows(
        [[vals[i] if i == j else 0 for j in range(d)] for i in range(d)]
    )


def p1(terms, nvars=1):
    return Polynomial.from_terms(nvars, terms, EXACT)


# -- joint spectrum ---------------------------------------------------------


def test_diagonal_tuple_spectrum():
    T = validate_tuple([diag(1, 2), diag(3, 4)])
    s = joint_spectrum(T)
    assert s.distinct() == (((1 + 0j), (3 + 0j)), ((2 + 0j), (4 + 0j)))
    assert all(p.multiplicity == 1 for p in s.points)


def test_identity_pair_spectrum():
    s = joint_spectrum(validate_tuple([Mat.identity(2), Mat.identity(2)]))
    assert len(s.points) == 1
    assert s.points[0].multiplicity == 2
    assert s.points[0].as_complex() == ((1 + 0j), (1 + 0j))


def test_nilpotent_tuple_spectrum_is_origin():
    N = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    T = validate_tuple([N, mat_power(N, 2)])
    s = joint_spectrum(T)
    assert s.distinct() == ((0j, 0j),)
    assert s.points[0].multiplicity == 3
    assert point_in_spectrum(T, [0, 0])
    assert not point_in_spectrum(T, [1, 0])


def test_spectrum_points_verify_against_cohomology(rng):
    for _ in range(5):
        T = random_commuting_tuple(rng, 3, 2, scheme="diag")
        s = joint_spectrum(T)
        for p in s.points:
            assert point_in_spectrum(T, p.point)
        for _ in range(10):
            z = [GaussianRational(rng.randint(5, 9), 1) for _ in range(T.n)]
            assert not point_in_spectrum(T, z)


def test_spectrum_multiplicities_sum_to_dimension(rng):
    for _ in range(5):
        T = random_commuting_tuple(rng, 4, 2, scheme="poly")
        try:
            s = joint_spectrum(T)
        except DeflationFailure:
            continue  # irrational eigenvalues are a documented exact-mode limit
        assert sum(p.multiplicity for p in s.points) == 4


def test_spectrum_permutation_covariance(rng):
    T = random_commuting_tuple(rng, 3, 3, scheme="diag")
    s = joint_spectrum(T)
    perm = [2, 0, 1]
    Tp = validate_tuple([T.matrices[i] for i in perm])
    sp = joint_spectrum(Tp)
    expect = {tuple(pt.as_complex()[i] for i in perm) for pt in s.points}
    assert expect == set(sp.distinct())


def test_float_mode_spectrum():
    T = validate_tuple(
        [Mat.from_numpy(np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex))]
    )
    s = joint_spectrum(T)
    vals = sorted(z[0].real for z in s.distinct())
    assert vals == pytest.approx([1.0, 2.0])


def test_float_chain_keeps_a_small_eigenvalue_apart():
    # float ranks are relative to the largest singular value: B^3 at 0
    # keeps 0.005^3 above DEFLATION_TOL; a chain that went on to B^4 would
    # not, and would pull the 0.005 eigenvector into the eigenspace of 0
    A = np.diag([0.0, 0.0, 0.005, 1.0]).astype(complex)
    A[0, 1] = 1.0
    s = joint_spectrum(validate_tuple([Mat.from_numpy(A)]))
    pts = [(p.point[0].real, p.multiplicity) for p in s.points]
    assert [m for _, m in pts] == [2, 1, 1]
    assert [x for x, _ in pts] == pytest.approx([0.0, 0.005, 1.0], abs=1e-12)


def test_a_float_cluster_without_a_kernel_is_skipped_and_the_extraction_refused():
    # I + 1e-10 N: both eigenvalues lie within DEFLATION_TOL of each other,
    # one cluster.  A - lambda I has singular values near 5e-10 and, from
    # rounding the 1 + 1e-10 k entries, near 1e-16: above DEFLATION_TOL
    # times the largest, so that cluster has no kernel and covers nothing
    A = np.eye(2) + 1e-10 * np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DeflationFailure, match="covered 0 of 2 dimensions"):
        joint_spectrum(validate_tuple([Mat.from_numpy(A)]))


def test_deflation_failure_on_irrational_eigenvalues():
    # eigenvalues +-sqrt(2) are not Gaussian rational
    T = validate_tuple([Mat.from_rows([[0, 2], [1, 0]])])
    with pytest.raises(DeflationFailure):
        joint_spectrum(T)


# -- generalized eigenspaces from the kernel chain ------------------------------


LAM = GaussianRational(1, 3)
MU = GaussianRational(-2)


def _conjugated(rows, seed=11, shears=6):
    d = len(rows)
    P = random_unimodular(get_rng(seed), d, shears)
    return P @ Mat.from_rows(rows) @ solve(P, Mat.identity(d))


def _jordan_plus(d, k, rest):
    """LAM I with k - 1 ones above the diagonal of its leading k x k block,
    and ``rest`` on the rest of the diagonal: A - LAM I has nilpotency
    index k on the generalized eigenspace of LAM."""
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = LAM if i < k else rest
        if i + 1 < k:
            rows[i][i + 1] = 1
    return rows


def _diag_rows(*vals):
    return [[v if i == j else 0 for j, _ in enumerate(vals)] for i, v in enumerate(vals)]


def _chain_cases():
    for d in range(1, 7):
        for k in range(1, d + 1):
            yield _jordan_plus(d, k, LAM)
            yield _jordan_plus(d, k, MU)
        yield _diag_rows(*([LAM, MU, 2] * 2)[:d])


@pytest.mark.parametrize("rows", list(_chain_cases()))
def test_kernel_chain_equals_kernel_of_the_full_power(rows):
    A = _conjugated(rows)
    d = A.rows
    for lam in (LAM, MU, GaussianRational(2), GaussianRational(7, 2)):
        B = A - Mat.identity(d).scale(lam)
        assert kernel_chain(A.minus_scalar(lam), d) == kernel_basis(mat_power(B, d))


def _count_square_products(monkeypatch):
    calls = []
    real = Mat.__matmul__

    def counted(self, other):
        if self.rows == self.cols == other.rows == other.cols:
            calls.append(self.rows)
        return real(self, other)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    return calls


def _count_chain_products(monkeypatch):
    # the exact chain multiplies Gaussian-integer rows, not Mats
    calls = []
    real = linalg_module._int_product

    def counted(P, Q):
        calls.append(len(P))
        return real(P, Q)

    monkeypatch.setattr(linalg_module, "_int_product", counted)
    return calls


def test_spurious_candidate_costs_no_product(monkeypatch):
    A = _conjugated(_jordan_plus(5, 3, MU))
    calls = _count_chain_products(monkeypatch)
    E = kernel_chain(A.minus_scalar(GaussianRational(7, 2)), A.rows)
    assert E.cols == 0 and E.rows == 5
    assert calls == []


def _count_chains(monkeypatch):
    tried = []
    real = spectrum_module.kernel_chain

    def recorded(B, room, tol=None):
        tried.append((B, room))
        return real(B, room, tol)

    monkeypatch.setattr(spectrum_module, "kernel_chain", recorded)
    return tried


def test_joint_spectrum_makes_one_chain_product_per_candidate(monkeypatch):
    # each eigenvalue of the first matrix runs one chain, with its
    # multiplicity as room, to compress the second; the second's own
    # multiplicities are the answer and run none.  Every eigenvalue here is
    # semisimple, so no chain makes a product
    half, third = GaussianRational(-1, 2), GaussianRational(1, 3)
    T = validate_tuple(
        [_conjugated(_diag_rows(1, 1, 2, 2, half, half)), _conjugated(_diag_rows(0, 1, 0, third, 0, 2))]
    )
    tried = _count_chains(monkeypatch)
    calls = _count_chain_products(monkeypatch)
    s = joint_spectrum(T)
    assert len(s.points) == 6 and all(p.multiplicity == 1 for p in s.points)
    assert [room for _, room in tried] == [2, 2, 2]
    assert calls == []


def test_spectrum_stops_once_the_space_is_covered(monkeypatch):
    # LAM's generalized eigenspace is all of C^4: a lone eigenvalue runs no
    # chain, and the tuple needs no compression
    A = _conjugated(_jordan_plus(4, 2, LAM))
    tried = _count_chains(monkeypatch)
    compressed = []
    monkeypatch.setattr(spectrum_module, "compress", lambda *a: compressed.append(a))
    s = joint_spectrum(validate_tuple([A, A @ A]))
    assert [(p.point, p.multiplicity) for p in s.points] == [((LAM, LAM * LAM), 4)]
    assert tried == [] and compressed == []


def test_an_eigenspace_that_fills_the_room_left_costs_no_product(monkeypatch):
    # LAM = 1 + 3i has multiplicity 3 and is semisimple: its first kernel
    # already has 3 columns, so neither chain makes a product
    A = _conjugated(_diag_rows(LAM, 2, LAM, 2, LAM))
    tried = _count_chains(monkeypatch)
    products = _count_chain_products(monkeypatch)
    s = joint_spectrum(validate_tuple([A, A @ A]))
    two = GaussianRational(2)
    assert [(p.point, p.multiplicity) for p in s.points] == [((LAM, LAM * LAM), 3), ((two, two * two), 2)]
    assert sorted(room for _, room in tried) == [2, 3]
    assert products == []


def test_exact_compress_reads_the_free_rows():
    half = GaussianRational(-1, 2)
    A = _conjugated(_diag_rows(LAM, 2, LAM, half, LAM))
    M = A @ A + A.scale(GaussianRational("1/7", 2))
    for lam in (LAM, GaussianRational(2), half):
        E = kernel_chain(A.minus_scalar(lam), A.rows)
        assert E.cols > 0
        assert compress([A, M], E) == [solve(E, A @ E), solve(E, M @ E)]
    # the eigenspace of -1/2 is not invariant under a matrix that does not commute with A
    N = _conjugated(_jordan_plus(5, 5, MU), seed=3)
    assert solve(E, N @ E) is None
    with pytest.raises(DeflationFailure):
        compress([N], E)
    # a float E is solved for, within the tolerance
    Af, Mf = (Mat.from_numpy(X.to_numpy()) for X in (A, M))
    Ef = kernel_chain(Af.minus_scalar(LAM.to_complex()), Af.rows, 1e-8)
    assert Ef.cols == 3
    assert compress([Af, Mf], Ef, 1e-8) == [solve(Ef, Af @ Ef, 1e-8), solve(Ef, Mf @ Ef, 1e-8)]


# -- exact eigenvalues -----------------------------------------------------------


def test_gaussian_eigenvalues_build_no_fraction(monkeypatch):
    half, i, minus_two_fifths = GaussianRational("1/2"), GaussianRational(0, 1), GaussianRational("-2/5")
    # conjugated by a unimodular matrix with no zero entry: one 6 x 6 block,
    # so the characteristic-polynomial routine runs on the whole matrix
    A = _conjugated(_diag_rows(half, 3, i, -1, minus_two_fifths, 3), shears=30)
    built, sizes, charpoly = [], [], linalg_module._charpoly
    new = Fraction.__new__

    def counting_charpoly(rows):
        sizes.append(len(rows))
        return charpoly(rows)

    monkeypatch.setattr(linalg_module, "_charpoly", counting_charpoly)

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert Fraction(1, 2) and built, "the counter must see Fraction constructions"
    built.clear()
    eigs = gaussian_eigenvalues(A)
    assert built == [] and sizes == [6]
    assert dict(eigs) == {half: 1, GaussianRational(3): 2, i: 1, GaussianRational(-1): 1, minus_two_fifths: 1}
    assert len(eigs) == 5


def _blocks(*blocks):
    """Block-diagonal rows of Jordan blocks, given as (eigenvalue, size)."""
    d = sum(k for _, k in blocks)
    rows, at = [[0] * d for _ in range(d)], 0
    for lam, k in blocks:
        for i in range(at, at + k):
            rows[i][i] = lam
            if i + 1 < at + k:
                rows[i][i + 1] = 1
        at += k
    return rows


_C = GaussianRational("2/3", "-1/5")


@pytest.mark.parametrize(
    "blocks",
    [
        ((LAM, 2), (LAM, 1), (MU, 3)),
        ((_C, 1), (_C.conjugate(), 1), (_C, 2)),
        ((GaussianRational(0, 1), 3), (GaussianRational(0, -1), 3)),
        ((_C, 4), (GaussianRational(-7, 3), 1), (_C * _C, 1)),
        ((GaussianRational("1/7"), 1), (GaussianRational("1/6"), 2)),
        # float roots of z^3 - (3 10^8 + 4) z^2 + ... are off by more than
        # 1/2; those of the same polynomial about its mean are exact
        ((10**8, 1), (10**8 + 1, 1), (10**8 + 3, 2)),
        # the roots near -10^8 round first; the two left, about their own mean
        ((10**8, 1), (10**8 + 1, 1), (-(10**8), 1), (2 - 10**8, 1)),
    ],
    ids=["repeated", "conjugate-pair", "plus-minus-i", "complex-jordan", "close", "far-cluster", "two-far-clusters"],
)
def test_gaussian_eigenvalues_count_algebraic_multiplicities(blocks):
    A = _conjugated(_blocks(*blocks), seed=5)
    want = {}
    for lam, k in blocks:
        lam = as_scalar(lam, EXACT)
        want[lam] = want.get(lam, 0) + k
    eigs = gaussian_eigenvalues(A)
    assert dict(eigs) == want and len(eigs) == len(want)
    s = joint_spectrum(validate_tuple([A]))
    assert {p.point[0]: p.multiplicity for p in s.points} == want


def test_gaussian_eigenvalues_leave_out_irrational_ones():
    # z^3 - 2z^2 - 2z + 4 = (z - 2)(z^2 - 2): only 2 is Gaussian rational
    A = _conjugated([[0, 1, 0], [0, 0, 1], [-4, 2, 2]])
    assert gaussian_eigenvalues(A) == [(GaussianRational(2), 1)]
    with pytest.raises(DeflationFailure, match="cover 1 of 3"):
        joint_spectrum(validate_tuple([A]))


def test_gaussian_eigenvalues_need_a_square_matrix():
    with pytest.raises(ShapeError):
        gaussian_eigenvalues(Mat.zeros(2, 3))


def _permuted(rows, perm):
    """Pi B Pi^T for the permutation perm: entry (i, j) is B[perm[i]][perm[j]]."""
    return [[rows[p][q] for q in perm] for p in perm]


_HALF, _TWO_FIFTHS = GaussianRational("1/2"), GaussianRational("2/5")


@pytest.mark.parametrize(
    "A, sizes, want",
    [
        # upper triangular with 3 twice on its diagonal: six 1 x 1 blocks
        (
            Mat.from_rows(
                _permuted(
                    [
                        [_HALF, 1, 2, 0, 1, 1],
                        [0, 3, 1, 1, 0, 2],
                        [0, 0, GaussianRational(0, 1), 1, 1, 0],
                        [0, 0, 0, 3, 1, 1],
                        [0, 0, 0, 0, -1, 2],
                        [0, 0, 0, 0, 0, -_TWO_FIFTHS],
                    ],
                    [3, 5, 0, 2, 4, 1],
                )
            ),
            [],
            {_HALF: 1, GaussianRational(3): 2, GaussianRational(0, 1): 1, GaussianRational(-1): 1, -_TWO_FIFTHS: 1},
        ),
        # [[1, 2], [3, 0]] (eigenvalues 3, -2), the companion matrix of
        # (z - 1)(z - 2)(z - 3) and [5]: 3 counts in two blocks
        (
            Mat.from_rows(
                _permuted(
                    [
                        [1, 2, 0, 0, 0, 0],
                        [3, 0, 0, 0, 0, 0],
                        [0, 0, 0, 0, 6, 0],
                        [0, 0, 1, 0, -11, 0],
                        [0, 0, 0, 1, 6, 0],
                        [0, 0, 0, 0, 0, 5],
                    ],
                    [4, 0, 5, 2, 1, 3],
                )
            ),
            [2, 3],
            {GaussianRational(3): 2, GaussianRational(-2): 1, GaussianRational(1): 1, GaussianRational(2): 1, GaussianRational(5): 1},
        ),
        # the repeated and two-far-clusters cases, conjugated by a unimodular
        # matrix with no zero entry; the second rounds its roots twice
        (_conjugated(_blocks((LAM, 2), (LAM, 1), (MU, 3)), seed=5, shears=30), [6], {LAM: 3, MU: 3}),
        (
            _conjugated(_diag_rows(10**8, 10**8 + 1, -(10**8), 2 - 10**8), seed=5, shears=30),
            [4],
            {GaussianRational(r): 1 for r in (10**8, 10**8 + 1, -(10**8), 2 - 10**8)},
        ),
    ],
    ids=["permuted-triangular", "permuted-direct-sum", "dense", "dense-two-far-clusters"],
)
def test_gaussian_eigenvalues_build_a_characteristic_polynomial_per_larger_block(monkeypatch, A, sizes, want):
    built, charpoly = [], linalg_module._charpoly

    def counting_charpoly(rows):
        built.append(len(rows))
        return charpoly(rows)

    monkeypatch.setattr(linalg_module, "_charpoly", counting_charpoly)
    eigs = gaussian_eigenvalues(A)
    assert sorted(built) == sizes
    assert dict(eigs) == want and len(eigs) == len(want)


def _companion(roots):
    """c I plus the companion matrix of the product of z - (r - c) over the
    roots r, with c = 1 + max |a| over r = (a + bi)/d.  Its eigenvalues are
    the roots, with one Jordan block for each distinct one, and its nonzero
    pattern is strongly connected, as no r - c is 0."""
    c = 1 + max(abs(r.a) for r in roots)
    p = [GaussianRational(1)]  # highest coefficient first
    for r in roots:
        p = [u - (r - c) * v for u, v in zip(p + [0], [0] + p)]
    k = len(roots)
    return [[(c if i == j else int(i == j + 1)) - (p[k - i] if j == k - 1 else 0) for j in range(k)] for i in range(k)]


#: Gaussian rationals near 0, and integers of one far cluster (the
#: far-cluster case); two far clusters in one block are the xfail below
_NEAR_ROOTS = st.builds(GaussianRational.from_ints, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
_FAR_ROOTS = st.sampled_from([10**8, 10**8 + 1, 10**8 + 3]).map(GaussianRational)


@st.composite
def _permuted_block_triangular(draw):
    """(A, roots): Pi B Pi^T, or its conjugate by a unimodular matrix, where
    B is block upper triangular with the companion blocks of the drawn roots
    on its diagonal and random integers above them."""
    pool = draw(st.sampled_from([_NEAR_ROOTS, _FAR_ROOTS]))
    blocks = draw(st.lists(st.lists(pool, min_size=1, max_size=3), min_size=1, max_size=3))
    d = sum(map(len, blocks))
    rows, at = [], 0
    for roots in blocks:
        k = len(roots)
        for row in _companion(roots):
            rows.append([0] * at + row + draw(st.lists(st.integers(-2, 2), min_size=d - at - k, max_size=d - at - k)))
        at += k
    rows = _permuted(rows, draw(st.permutations(range(d))))
    A = _conjugated(rows, seed=draw(st.integers(0, 99))) if draw(st.booleans()) else Mat.from_rows(rows)
    return A, [r for roots in blocks for r in roots]


@settings(max_examples=60, deadline=None)
@given(_permuted_block_triangular())
def test_gaussian_eigenvalues_per_block_are_those_of_the_whole_matrix(case):
    A, roots = case
    want = {}
    for r in roots:
        want[r] = want.get(r, 0) + 1
    eigs = gaussian_eigenvalues(A)
    assert dict(eigs) == want == dict(linalg_module._block_eigenvalues(A))
    assert len(eigs) == len(want)


@pytest.mark.xfail(
    strict=True,
    reason="the float roots of one block with two far clusters of 3 and 2 roots round to none of them",
)
def test_gaussian_eigenvalues_of_two_far_clusters_in_one_dense_block():
    # the two-far-clusters case with 10^8 + 3 added covers 0 of 5; without it, 4 of 4
    roots = (10**8, 10**8 + 1, 10**8 + 3, -(10**8), 2 - 10**8)
    A = _conjugated(_diag_rows(*roots), seed=5, shears=30)
    assert dict(gaussian_eigenvalues(A)) == {GaussianRational(r): 1 for r in roots}


_GR = st.builds(
    lambda a, b, d: GaussianRational.from_ints(a, b, d),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(1, 6),
)


@given(st.integers(0, 5).flatmap(lambda d: st.lists(st.lists(_GR, min_size=d, max_size=d), min_size=d, max_size=d)))
@example([])
@example([[GaussianRational(0, 1)]])
def test_charpoly_matches_cofactor_expansion(rows):
    # det(zI - LA) = L^d det(z/L I - A): its z^(d-k) coefficient is L^k c_k
    A = Mat.from_rows(rows) if rows else Mat.zeros(0, 0)
    L = lcm(*(v.d for row in rows for v in row))
    p = linalg_module._charpoly(linalg_module._gauss_int_rows(A, L))
    want = [(re * L**k, im * L**k) for k, (re, im) in enumerate(oracle_charpoly(A))]
    assert p == want


def test_deflation_tol_is_read_in_float_mode_only(monkeypatch):
    A = _conjugated(_jordan_plus(4, 2, LAM))
    exact = [validate_tuple([A, A @ A]), validate_tuple([_conjugated(_diag_rows(LAM, 2, LAM, MU))])]
    before = [joint_spectrum(T) for T in exact]
    Tf = validate_tuple([Mat.from_numpy(np.diag([1.0, 1.0 + 1e-9, 2.0]).astype(complex))])
    float_before = joint_spectrum(Tf)
    monkeypatch.setattr(spectrum_module, "DEFLATION_TOL", float("nan"))
    assert [joint_spectrum(T) for T in exact] == before
    try:
        float_after = joint_spectrum(Tf)
    except DeflationFailure:
        float_after = None
    assert float_after != float_before


# -- polynomial calculus -----------------------------------------------------


_X = Polynomial.variable(0, 1)
_XY = PolyMap.identity(2)

#: (call, error, message) of each argument check in polymap
_POLYMAP_REFUSALS = {
    "monomial-arity": (lambda: p1([((1, 0), 1)]), FormatError, "bad monomial (1, 0) for 1 variables"),
    "monomial-negative": (lambda: p1([((-1,), 1)]), FormatError, "bad monomial (-1,) for 1 variables"),
    "add-modes": (lambda: _X + Polynomial.variable(0, 1, FLOAT), ShapeError, "arity/mode mismatch"),
    "point-arity": (lambda: _X.eval_point((1, 2)), ShapeError, "point arity 2 != 1"),
    "tuple-arity": (lambda: _X.eval_matrices([Mat.identity(1)] * 2), ShapeError, "tuple arity 2 != 1"),
    "substitute-arity": (lambda: _X.substitute([_X, _X]), ShapeError, "substitution arity mismatch"),
    "no-components": (lambda: PolyMap.from_components([]), FormatError, "at least one component"),
    "component-arity": (lambda: PolyMap.from_components([_X, _XY.components[0]]), ShapeError, "disagree on variable count"),
    "compose-arity": (lambda: _XY.compose(PolyMap.identity(3)), ShapeError, "composition arity mismatch"),
}


@pytest.mark.parametrize("call, error, message", _POLYMAP_REFUSALS.values(), ids=_POLYMAP_REFUSALS)
def test_polymap_refuses_bad_arguments(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_a_float_map_vanishing_only_at_the_origin_has_no_witness():
    # half the sampled coordinates are 0j, the others small Gaussian integers
    assert PolyMap.identity(2, FLOAT).nonzero_vanishing_witness(random.Random(0)) is None


def test_eval_matrices_makes_one_product_per_new_power(monkeypatch):
    A = Mat.from_rows([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    square, cube = A @ A, A @ A @ A
    cache = {}
    calls = _count_square_products(monkeypatch)
    # x^2 + 5: A^2 is the only product, the constant term is 5 I
    assert p1([((2,), 1), ((0,), 5)]).eval_matrices([A], cache) == square + Mat.identity(3).scale(5)
    assert len(calls) == 1
    # x^3 with the same cache: A^3 from the cached A^2
    assert p1([((3,), 1)]).eval_matrices([A], cache) == cube
    assert len(calls) == 2


def test_apply_identity_map_returns_same_matrices():
    T = validate_tuple([diag(1, 2), diag(3, 4)])
    out = apply_poly_map(PolyMap.identity(2), T)
    assert out.matrices == T.matrices


def _count_commutators(monkeypatch):
    calls = []
    real = koszul_module.commutator

    def counted(A, B):
        calls.append(A.mode)
        return real(A, B)

    monkeypatch.setattr(koszul_module, "commutator", counted)
    return calls


def test_an_exact_mapped_tuple_is_not_checked_again(monkeypatch):
    # polynomials in one exact commuting tuple commute exactly; float ones
    # are still checked, one commutator per pair
    terms = [[((1, 0), 1), ((0, 1), 1)], [((1, 1), 1)], [((2, 0), 1)]]
    T = validate_tuple([diag(1, 2, 3), diag(3, 4, 5)])
    Tf = validate_tuple([Mat.from_numpy(M.to_numpy()) for M in T.matrices])
    calls = _count_commutators(monkeypatch)
    exact = apply_poly_map(PolyMap.from_components([p1(t, 2) for t in terms]), T)
    assert calls == []
    assert exact.matrices == (diag(4, 6, 8), diag(3, 8, 15), diag(1, 4, 9))
    floats = PolyMap.from_components([Polynomial.from_terms(2, t, FLOAT) for t in terms])
    assert apply_poly_map(floats, Tf).matrices[1].to_numpy() == pytest.approx(np.diag([3, 8, 15]))
    assert calls == ["float"] * 3


def test_apply_power_map_kills_nilpotent():
    N = Mat.from_rows([[0, 1], [0, 0]])
    T = validate_tuple([N, Mat.zeros(2, 2)])
    f = PolyMap.from_components(
        [p1([((2, 0), 1)], 2), p1([((0, 1), 1)], 2)]
    )
    out = apply_poly_map(f, T)
    assert out.matrices[0].is_zero() and out.matrices[1].is_zero()


def test_apply_square_on_diagonal():
    T = validate_tuple([diag(1, 2)])
    out = apply_poly_map(PolyMap.from_components([p1([((2,), 1)])]), T)
    assert out.matrices[0] == diag(1, 4)


def test_poly_map_composition_property(rng):
    for _ in range(10):
        T = random_commuting_tuple(rng, 3, 2)
        g = random_poly_map(rng, 2, 2, max_degree=2)
        f = random_poly_map(rng, 2, 2, max_degree=2)
        via_matrices = apply_poly_map(f, apply_poly_map(g, T))
        composed = apply_poly_map(f.compose(g), T)
        assert via_matrices.matrices == composed.matrices


# -- spectral mapping ---------------------------------------------------------


def test_spectral_mapping_identity_always_true():
    T = validate_tuple([diag(1, 2), diag(3, 4)])
    assert spectral_mapping_check(PolyMap.identity(2), T, 1e-6)


def test_spectral_mapping_square():
    T = validate_tuple([diag(1, 2)])
    f = PolyMap.from_components([p1([((2,), 1)])])
    assert spectral_mapping_check(f, T, 1e-6)
    assert joint_spectrum(apply_poly_map(f, T)).distinct() == (
        ((1 + 0j),),
        ((4 + 0j),),
    )


def test_spectral_mapping_nilpotent_shear():
    N = Mat.from_rows([[0, 1], [0, 0]])
    T = validate_tuple([N, Mat.zeros(2, 2)])
    f = PolyMap.from_components(
        [p1([((1, 0), 1)], 2), p1([((0, 1), 1), ((1, 0), -1)], 2)]
    )
    assert spectral_mapping_check(f, T, 1e-6)


# -- invertibility under origin-only-vanishing maps ---------------------------


def test_invertibility_check_trivial():
    T = validate_tuple([Mat.identity(2)])
    f = PolyMap.identity(1)
    assert poly_map_invertibility_check(T, f)


def test_invertibility_check_power_map():
    # scaled identities: applying (z1^m, z2) must stay invertible
    T = validate_tuple([Mat.identity(2).scale(2), Mat.identity(2).scale(3)])
    for m in (1, 2, 3, 5):
        f = PolyMap.from_components(
            [p1([((m, 0), 1)], 2), p1([((0, 1), 1)], 2)]
        )
        assert poly_map_invertibility_check(T, f)


def test_invertibility_check_shear():
    # f(z1,z2) = (z1, z2 - z1 + 1): joint eigenvalues avoid 0 on both sides
    T = validate_tuple([diag(1, 2), diag(1, 3)])
    f = PolyMap.from_components(
        [
            p1([((1, 0), 1)], 2),
            p1([((0, 1), 1), ((1, 0), -1), ((0, 0), 1)], 2),
        ]
    )
    assert poly_map_invertibility_check(T, f)


def test_invertibility_check_rejects_noninvertible_tuple():
    N = Mat.from_rows([[0, 1], [0, 0]])
    with pytest.raises(PreconditionError):
        poly_map_invertibility_check(validate_tuple([N]), PolyMap.identity(1))


def test_spotcheck_flags_vanishing_on_the_spectrum(rng):
    # f(z) = z^2 - z vanishes at 1, which lies in the spectrum of I
    T = validate_tuple([Mat.identity(2)])
    f = PolyMap.from_components([p1([((2,), 1), ((1,), -1)])])
    with pytest.raises(PreconditionError):
        poly_map_invertibility_check(T, f, rng=rng)


def test_spotcheck_tolerates_vanishing_off_the_spectrum(rng):
    # same f, but the spectrum {3} avoids its zero set {0, 1}
    T = validate_tuple([Mat.identity(2).scale(3)])
    f = PolyMap.from_components([p1([((2,), 1), ((1,), -1)])])
    assert poly_map_invertibility_check(T, f, rng=rng)
