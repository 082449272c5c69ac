from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.errors import DegreeError, ModeMismatch, NonCommuting, NotStabilized, ShapeError
from koszulkit.koszul import (
    CommutingTuple,
    augment_les,
    augment_tuple,
    cohomology,
    form_basis,
    induced_map,
    koszul_complex,
    koszul_differential,
    splice_dims,
    validate_tuple,
)
from koszulkit.linalg import Mat, solve
from koszulkit.scalars import EXACT, GaussianRational

from oracles import oracle_rank
from randgen import (
    get_rng,
    random_commuting_tuple,
    random_exact_matrix,
    random_poly_in,
    random_unimodular,
)

N2 = Mat.from_rows([[0, 1], [0, 0]])


def random_tuples(count, max_d=5, max_n=3, scheme="poly", seed_offset=0):
    rng = get_rng()
    rng.seed(rng.random() + seed_offset)
    out = []
    for _ in range(count):
        d = rng.randint(1, max_d)
        n = rng.randint(1, max_n)
        out.append(random_commuting_tuple(rng, d, n, scheme=scheme))
    return out


# -- validation ----------------------------------------------------------


def test_diagonal_matrices_accepted():
    T = validate_tuple([Mat.from_rows([[1, 0], [0, 2]]), Mat.from_rows([[3, 0], [0, 4]])])
    assert T.n == 2 and T.d == 2


def test_single_matrix_accepted():
    assert validate_tuple([N2]).n == 1


def test_noncommuting_rejected_with_pair():
    other = Mat.from_rows([[0, 0], [1, 0]])
    with pytest.raises(NonCommuting) as exc:
        validate_tuple([N2, other])
    assert exc.value.pair == (0, 1)
    assert exc.value.norm > 1.0


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        validate_tuple([N2, Mat.zeros(3, 3)])


def test_float_mode_commutator_tolerance():
    import numpy as np

    A = Mat.from_numpy(np.array([[1.0, 0.0], [0.0, 2.0]]))
    almost = Mat.from_numpy(np.array([[3.0, 1e-14], [0.0, 4.0]]))
    T = validate_tuple([A, almost])
    assert T.mode == "float"
    assert cohomology(T).index == 0
    far = Mat.from_numpy(np.array([[3.0, 1.0], [0.0, 4.0]]))
    with pytest.raises(NonCommuting):
        validate_tuple([A, far])


# -- form basis and differentials ------------------------------------------


def test_form_basis_is_lexicographic():
    fb = form_basis(4, 2)
    assert fb[0] == (1, 2)
    assert fb == tuple(sorted(fb))
    assert len(fb) == comb(4, 2)


def test_differential_n1_is_the_operator():
    T = validate_tuple([N2])
    assert koszul_differential(T, 0) == N2


def test_differential_n2_shapes_and_blocks():
    T = validate_tuple([N2, Mat.zeros(2, 2)])
    D0 = koszul_differential(T, 0)
    D1 = koszul_differential(T, 1)
    assert D0.shape == (4, 2)
    assert D1.shape == (2, 4)
    # D0 stacks [T1; T2]
    for i in range(2):
        for j in range(2):
            assert D0.at(i, j) == N2.at(i, j)
            assert D0.at(2 + i, j).is_zero()
    # D1 is [-T2, T1]
    for i in range(2):
        for j in range(2):
            assert D1.at(i, j).is_zero()  # -T2 = 0
            assert D1.at(i, 2 + j) == N2.at(i, j)
    assert (D1 @ D0).is_zero()


def test_differential_degree_out_of_range():
    T = validate_tuple([N2])
    with pytest.raises(DegreeError):
        koszul_differential(T, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: form_basis(2, 3), "degree 3 outside 0..2"),
        (lambda: induced_map(N2, validate_tuple([N2]), 2), "degree 2 outside 0..1"),
    ],
    ids=["form-basis", "induced-map"],
)
def test_degrees_outside_the_complex_are_refused(call, message):
    with pytest.raises(DegreeError, match=f"^{message}$"):
        call()


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10**6))
def test_chain_identity_on_random_tuples(d, n, seed):
    rng = get_rng(seed)
    T = random_commuting_tuple(rng, d, n)
    diffs = koszul_complex(T).differentials
    for p in range(n - 1):
        assert (diffs[p + 1] @ diffs[p]).is_zero()


@pytest.mark.parametrize(
    "violate, error",
    [
        # a tuple built without validate_tuple: the chain identity fails
        (lambda: koszul_complex(CommutingTuple(2, 2, (N2, N2.adjoint()), EXACT)), NonCommuting),
    ],
    ids=["chain-identity"],
)
def test_invariant_violations_raise_explicit_errors(violate, error):
    with pytest.raises(error):
        violate()


F2 = Mat.from_numpy(np.array([[0.0, 1.0], [0.0, 0.0]]))
#: AB != BA, but AB and BA overflow, so AB - BA holds NaN
BIG_A = Mat.from_numpy(np.array([[1e200, 1e200], [0.0, 0.0]]))
BIG_B = Mat.from_numpy(np.array([[1e200, 0.0], [1e200, 0.0]]))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: CommutingTuple(2, 2, (F2, F2.adjoint()), "float"), NonCommuting),
        pytest.param(
            lambda: CommutingTuple(2, 2, (BIG_A, BIG_B), "float"),
            NonCommuting,
            marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning"),
        ),
        (lambda: CommutingTuple(3, 2, (N2,), EXACT), ShapeError),
        (lambda: CommutingTuple(1, 3, (N2,), EXACT), ShapeError),
        (lambda: CommutingTuple(1, 2, (N2,), "float"), ModeMismatch),
    ],
    ids=["float-noncommuting", "float-overflowing-commutator", "wrong-n", "wrong-d", "wrong-mode"],
)
def test_constructor_checks_its_own_invariant(build, error):
    with pytest.raises(error):
        build()


def test_constructor_refuses_the_empty_tuple():
    with pytest.raises(ShapeError):
        CommutingTuple(0, 2, (), EXACT)
    with pytest.raises(ShapeError):
        validate_tuple([])


def test_koszul_complex_multiplies_no_matrices(monkeypatch):
    T = random_commuting_tuple(get_rng(3), 3, 3)
    assert T.mode == EXACT
    calls = []
    real = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda A, B: calls.append(1) or real(A, B))
    assert len(koszul_complex(T).differentials) == 3
    assert calls == []


# -- cohomology -------------------------------------------------------------


def test_zero_tuple_closed_form():
    T = validate_tuple([Mat.zeros(3, 3), Mat.zeros(3, 3)])
    rep = cohomology(T)
    assert rep.dims == (3, 6, 3)
    assert rep.index == 0
    assert not rep.invertible


def test_invertible_single_operator():
    rep = cohomology(validate_tuple([Mat.from_rows([[1, 1], [0, 1]])]))
    assert rep.dims == (0, 0)
    assert rep.invertible


def test_jordan_pair_dims():
    rep = cohomology(validate_tuple([N2, Mat.zeros(2, 2)]))
    assert rep.dims == (1, 2, 1)
    assert rep.index == 0


def test_dims_match_rank_oracle_on_small_corpus():
    for T in random_tuples(20, max_d=4):
        diffs = koszul_complex(T).differentials
        rep = cohomology(T)
        prev = 0
        for p in range(T.n + 1):
            if p < T.n:
                cols = diffs[p].cols
                rp = oracle_rank(diffs[p])
            else:
                cols = T.d
                rp = 0
            assert rep.dims[p] == cols - rp - prev
            prev = rp


def test_permuting_operators_preserves_dims():
    rng = get_rng(7)
    for _ in range(10):
        T = random_commuting_tuple(rng, 4, 3)
        mats = list(T.matrices)
        rng.shuffle(mats)
        assert cohomology(validate_tuple(mats)).dims == cohomology(T).dims


# -- induced maps and the augmentation sequence -----------------------------


def test_induced_identity_is_identity():
    T = validate_tuple([N2, Mat.zeros(2, 2)])
    rep = cohomology(T)
    for p in range(3):
        M = induced_map(Mat.identity(2), T, p)
        assert M.shape == (rep.dims[p], rep.dims[p])
        assert (M - Mat.identity(rep.dims[p])).is_zero()


def test_induced_zero_is_zero():
    T = validate_tuple([N2])
    assert induced_map(Mat.zeros(2, 2), T, 0).is_zero()


def test_induced_nilpotent_kills_its_kernel():
    T = validate_tuple([N2])
    M = induced_map(N2, T, 0)
    assert M.shape == (1, 1) and M.is_zero()


def test_induced_rejects_noncommuting():
    T = validate_tuple([N2])
    with pytest.raises(NonCommuting):
        induced_map(Mat.from_rows([[0, 0], [1, 0]]), T, 0)


def test_augment_tuple_checks_only_the_new_pairs(monkeypatch):
    import koszulkit.koszul as kz

    calls = []
    real = kz.commutator
    monkeypatch.setattr(kz, "commutator", lambda A, B: calls.append(1) or real(A, B))
    T = random_commuting_tuple(get_rng(7), 3, 3)
    calls.clear()
    S = T.matrices[0] @ T.matrices[1]
    rep = augment_les(T, S)
    assert len(calls) == 3
    assert rep.agree
    with pytest.raises(NonCommuting) as exc:
        augment_tuple(validate_tuple([N2]), Mat.from_rows([[0, 0], [1, 0]]))
    assert exc.value.pair == (0, 1)


def test_les_jordan_augmented_by_zero():
    rep = augment_les(validate_tuple([N2]), Mat.zeros(2, 2))
    assert rep.dims_direct == (1, 2, 1)
    assert rep.agree
    assert rep.index == 0
    assert not rep.all_iso


def test_les_identity_augmentation_vanishes():
    rep = augment_les(validate_tuple([N2]), Mat.identity(2))
    assert rep.dims_direct == (0, 0, 0)
    assert rep.all_iso


def test_les_zero_tuple():
    d = 4
    Z = Mat.zeros(d, d)
    rep = augment_les(validate_tuple([Z]), Z)
    assert rep.dims_direct == (d, 2 * d, d)


@pytest.mark.parametrize(
    "base, ranks, dims",
    [
        # Theorem 1.1's pair (S*, S*), test_pair_cohomology_linear's answer:
        # ker S* = 1, coker S* = 0, and S* is 0 on both
        ((1, 0), (0, 0), (1, 1, 0)),
        ((2, 3), (2, 3), (0, 0, 0)),
        ((1, 2, 1), (1, 2, 1), (0, 0, 0, 0)),
        # (J, J^2) with S = J, J the 3 x 3 nilpotent Jordan block
        ((1, 2, 1), (0, 0, 0), (1, 3, 3, 1)),
        ((1, 2, 1), (1, 1, 0), (0, 1, 2, 1)),
        ((4,), (1,), (3, 3)),
    ],
)
def test_splice_dims_adds_the_cokernel_before_to_the_kernel_here(base, ranks, dims):
    assert splice_dims(base, ranks) == dims
    assert len(dims) == len(base) + 1


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_les_eliminates_only_the_augmented_complex(monkeypatch, mode):
    # dim H^p(T) is the size of S's induced map on it, so the one complex
    # whose cohomology is taken from ranks is that of (T, S): D^-1 .. D^3
    import koszulkit.koszul as kz

    calls = []
    real = kz._cohomology
    monkeypatch.setattr(kz, "_cohomology", lambda D, tol: calls.append(len(D)) or real(D, tol))
    J = Mat.from_rows(_jordan(0, 3))
    mats = [J, J @ J, J]
    if mode == "float":
        mats = [Mat.from_numpy(M.to_numpy()) for M in mats]
    try:
        rep = augment_les(validate_tuple(mats[:2]), mats[2])
    except NotStabilized:
        # the float rank cut, relative to the largest singular value, gives
        # S's 2e-16 induced map on H^1 rank 1, so the two ways disagree
        assert mode == "float"
    else:
        assert rep.dims_direct == rep.dims_sequence == (1, 3, 3, 1)
        assert (rep.base_dims, rep.induced_ranks) == ((1, 2, 1), (0, 0, 0))
    assert calls == [5]


def test_les_consistency_on_random_corpus():
    rng = get_rng(11)
    for _ in range(25):
        d = rng.randint(1, 5)
        n = rng.randint(1, 3)
        A_seedtuple = random_commuting_tuple(rng, d, n)
        # augmenting operator: polynomial in one of the tuple's operators
        S = random_poly_in(rng, A_seedtuple.matrices[0])
        rep = augment_les(A_seedtuple, S)
        assert rep.agree
        assert rep.index == 0


def test_invertible_augmentation_makes_induced_maps_isomorphisms():
    # (T, S) invertible -> induced action invertible in every degree
    rng = get_rng(13)
    hits = 0
    for _ in range(40):
        T = random_commuting_tuple(rng, 3, 2, scheme="diag")
        S = random_poly_in(rng, T.matrices[0]) + Mat.identity(3).scale(
            GaussianRational(rng.randint(1, 3))
        )
        rep = augment_les(T, S)
        if all(d == 0 for d in rep.dims_direct):
            hits += 1
            assert rep.all_iso
    assert hits >= 5  # the corpus really exercises the invertible case


def _c04_like_pair(rng):
    """(T, S) drawn like the acceptance LES corpus."""
    d = rng.randint(1, 5)
    n = rng.randint(1, 3)
    if rng.random() < 0.7:
        A = random_exact_matrix(rng, d)
        return validate_tuple([random_poly_in(rng, A) for _ in range(n)]), random_poly_in(rng, A)
    T = random_commuting_tuple(rng, d, n, scheme="diag")
    return T, random_poly_in(rng, T.matrices[0])


def test_float_les_matches_exact_on_c04_like_corpus():
    rng = get_rng(4)
    for _ in range(60):
        T, S = _c04_like_pair(rng)
        exact = augment_les(T, S)
        Tf = validate_tuple([Mat.from_numpy(M.to_numpy()) for M in T.matrices])
        fl = augment_les(Tf, Mat.from_numpy(S.to_numpy()))
        assert fl.agree
        assert fl.dims_direct == exact.dims_direct
        assert fl.base_dims == exact.base_dims
        assert fl.iso_by_degree == exact.iso_by_degree


# -- localisation to the joint generalized eigenspace at 0 ------------------


def _oracle_dims(T):
    """Cohomology dims of T by ``oracle_rank`` on its full Koszul complex."""
    ranks = [0] + [oracle_rank(D) for D in koszul_complex(T).differentials] + [0]
    return tuple(T.d * comb(T.n, p) - ranks[p + 1] - ranks[p] for p in range(T.n + 1))


def _assert_localised_les_matches_the_full_space(T, S):
    rep = augment_les(T, S)
    full = _oracle_dims(augment_tuple(T, S))
    assert rep.dims_direct == rep.dims_sequence == full
    assert rep.base_dims == cohomology(T).dims == _oracle_dims(T)
    ranks = tuple(oracle_rank(induced_map(S, T, p)) for p in range(T.n + 1))
    assert rep.induced_ranks == ranks
    assert rep.iso_by_degree == tuple(r == b for r, b in zip(ranks, rep.base_dims))
    return rep


def _similar(blocks, seed):
    """P (block diagonal of ``blocks``) P^-1 for a unimodular P."""
    d = sum(len(b) for b in blocks)
    rows, at = [[0] * d for _ in range(d)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    P = random_unimodular(get_rng(seed), d)
    return P @ Mat.from_rows(rows) @ solve(P, Mat.identity(d))


def _jordan(lam, k):
    return [[lam if i == j else (1 if j == i + 1 else 0) for j in range(k)] for i in range(k)]


def test_localised_dims_match_the_full_complex_on_the_c04_corpus():
    rng = get_rng(17)
    nonzero = 0
    for _ in range(40):
        T, S = _c04_like_pair(rng)
        rep = _assert_localised_les_matches_the_full_space(T, S)
        nonzero += any(rep.base_dims)
    assert nonzero >= 3


def test_localised_dims_match_the_full_complex_on_nilpotent_tuples():
    # V_0 is the whole space.  Polynomials without constant term in one
    # conjugated nilpotent matrix, and conjugated square-zero tuples
    # e_1 u_i^T (u_i(1) = 0), whose products all vanish; on the latter the
    # cohomology on ker T_1 differs from that on V, e.g. (E_12, E_13) has
    # dims (1, 3, 2) on C^3 but (1, 2, 1) on ker E_12
    rng = get_rng(19)
    for seed in range(8):
        d = rng.randint(2, 5)
        N = _similar([[[rng.randint(-2, 2) if j > i else 0 for j in range(d)] for i in range(d)]], seed)
        mats = [random_poly_in(rng, N) @ N for _ in range(rng.randint(1, 3))]
        T = validate_tuple(mats)
        assert any(cohomology(T).dims)
        _assert_localised_les_matches_the_full_space(T, random_poly_in(rng, N))
    E = [_similar([[[0, 1, 0], [0, 0, 0], [0, 0, 0]]], 4), _similar([[[0, 0, 1], [0, 0, 0], [0, 0, 0]]], 4)]
    assert cohomology(validate_tuple(E)).dims == (1, 3, 2)
    for seed in range(8):
        d, n = rng.randint(3, 5), rng.randint(2, 3)
        rows = [[[0] + [rng.randint(-2, 2) for _ in range(d - 1)]] + [[0] * d] * (d - 1) for _ in range(n + 1)]
        mats = [_similar([r], seed) for r in rows]
        _assert_localised_les_matches_the_full_space(validate_tuple(mats[:-1]), mats[-1])


@pytest.mark.parametrize(
    "blocks",
    [
        [_jordan(0, 3)],
        [_jordan(0, 2), _jordan("1/2", 2)],
        [_jordan(0, 2), _jordan(0, 1), _jordan(-3, 2)],
        [_jordan("2/3", 3), _jordan(0, 1)],
        [_jordan(1, 2), _jordan(-1, 2)],
    ],
)
def test_localised_dims_match_the_full_complex_on_conjugated_jordan_tuples(blocks):
    rng = get_rng(23)
    A = _similar(blocks, 5)
    for n in (1, 2, 3):
        T = validate_tuple([A] + [random_poly_in(rng, A) @ A for _ in range(n - 1)])
        _assert_localised_les_matches_the_full_space(T, random_poly_in(rng, A))


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (0, 1), (1, 0), (2, -1)],
        [(0, 0), (0, 0), (0, "1/2"), ("-1/3", 0)],
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1), (0, 0, 0)],
    ],
)
def test_localised_dims_match_the_full_complex_with_several_joint_eigenvalues(points):
    # conjugated diagonal tuples whose joint eigenvalues include 0 once or twice
    d, n = len(points), len(points[0])
    mats = [_similar([[[pt[i]]] for pt in points], 7) for i in range(n)]
    T = validate_tuple(mats)
    zeros = sum(all(GaussianRational(x).is_zero() for x in pt) for pt in points)
    assert cohomology(T).dims == tuple(zeros * comb(n, p) for p in range(n + 1))
    for S in (mats[0], Mat.identity(d), Mat.zeros(d, d)):
        _assert_localised_les_matches_the_full_space(T, S)


def test_an_augmentation_invertible_on_v0_only_closes_the_sequence():
    # S is I + N on V_0(T) = the Jordan block at 0, and 0 on T's other
    # eigenspaces: singular on V, yet (T, S) is invertible
    T = validate_tuple([_similar([_jordan(0, 2), _jordan(1, 1), _jordan(2, 1)], 9)])
    S = _similar([[[1, 1], [0, 1]], [[0]], [[0]]], 9)
    assert oracle_rank(S) == 2
    rep = _assert_localised_les_matches_the_full_space(T, S)
    assert rep.dims_direct == (0, 0, 0) and rep.base_dims == (1, 1)
    assert rep.all_iso


def test_an_invertible_exact_tuple_builds_no_differential(monkeypatch):
    import koszulkit.koszul as kz

    calls = []
    real = kz.koszul_differential
    monkeypatch.setattr(kz, "koszul_differential", lambda T, p: calls.append(p) or real(T, p))
    T = validate_tuple([N2, N2 + Mat.identity(2)])
    assert cohomology(T).dims == (0, 0, 0)
    assert augment_les(T, N2).dims_direct == (0, 0, 0, 0)
    # augment_les localises to V_0 of T alone, where S = I + N2 is invertible
    assert augment_les(validate_tuple([N2]), N2 + Mat.identity(2)).dims_direct == (0, 0, 0)
    assert calls == [0, 1, 0]
    calls.clear()
    assert cohomology(validate_tuple([N2, Mat.zeros(2, 2)])).dims == (1, 2, 1)
    assert calls == [0, 1]


def test_a_float_tuple_is_not_localised(monkeypatch):
    import koszulkit.koszul as kz

    calls = []
    real = kz.kernel_chain
    monkeypatch.setattr(kz, "kernel_chain", lambda *a: calls.append(1) or real(*a))
    exact = [_similar([_jordan(0, 2), _jordan(3, 1)], 2)]
    T, S = validate_tuple(exact), exact[0] @ exact[0]
    Tf = validate_tuple([Mat.from_numpy(M.to_numpy()) for M in T.matrices])
    Sf = Mat.from_numpy(S.to_numpy())
    assert cohomology(Tf).dims == (1, 1)
    assert augment_les(Tf, Sf).dims_direct == (1, 2, 1)
    assert calls == []
    assert cohomology(T).dims == (1, 1)
    assert calls == [1]
