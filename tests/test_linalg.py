import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import koszulkit.linalg as linalg_module
from koszulkit.errors import ModeMismatch, NonCommuting, ShapeError
from koszulkit.koszul import validate_tuple
from koszulkit.linalg import (
    Mat,
    commutator,
    independent_columns,
    kernel_basis,
    kernel_chain,
    mat_block,
    mat_power,
    rank,
    solve,
    spectral_radius,
)
from koszulkit.scalars import EXACT, FLOAT, GR_ZERO, GaussianRational

from oracles import oracle_rank
from randgen import get_rng, random_unimodular


@st.composite
def exact_mats(draw, max_dim=5, lo=-4, hi=4, rows=None):
    """Gaussian-rational matrices: both parts with denominators 1..6."""
    r = rows if rows is not None else draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    part = st.builds(Fraction, st.integers(lo, hi), st.integers(1, 6))
    ent = draw(st.lists(st.builds(GaussianRational, part, part), min_size=r * c, max_size=r * c))
    return Mat(r, c, ent, EXACT)


# -- kernels and ranks --------------------------------------------------


def test_kernel_of_zero_map_is_everything():
    assert kernel_basis(Mat.zeros(2, 2)).cols == 2


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(Mat.identity(2)).cols == 0


def test_kernel_of_rank_one_matrix():
    K = kernel_basis(Mat.from_rows([[1, 1], [2, 2]]))
    assert K.cols == 1
    v0, v1 = K.at(0, 0), K.at(1, 0)
    assert (v0 + v1).is_zero() and not v0.is_zero()


def test_rank_examples():
    assert rank(Mat.identity(4)) == 4
    assert rank(Mat.zeros(3, 3)) == 0
    assert rank(Mat.from_rows([[1, 2], [2, 4], [3, 6]])) == 1


def test_spectral_radius_examples():
    assert spectral_radius(Mat.from_rows([[2]])) == pytest.approx(2.0)
    assert spectral_radius(Mat.from_rows([[0, 1], [0, 0]])) <= 1e-8
    assert spectral_radius(Mat.from_rows([[0, 1], [1, 0]])) == pytest.approx(1.0)


def test_spectral_radius_shape_errors():
    with pytest.raises(ShapeError):
        spectral_radius(Mat.zeros(2, 3))


_I2, _F2 = Mat.identity(2), Mat.identity(2, FLOAT)

#: (call, error, message) of each argument check in linalg
_LINALG_REFUSALS = {
    "entry-count": (lambda: Mat(2, 2, [GR_ZERO] * 3, EXACT), ShapeError, "entry count 3 != 2x2"),
    "unknown-mode": (lambda: Mat(1, 1, [0], "decimal"), ValueError, "unknown mode 'decimal'"),
    "ragged-rows": (lambda: Mat.from_rows([[1, 2], [3]]), ShapeError, "ragged row lengths"),
    "numpy-1d": (lambda: Mat.from_numpy(np.zeros(3)), ShapeError, "expected a 2-d array"),
    "add-modes": (lambda: _I2 + _F2, ModeMismatch, "mixed modes exact/float"),
    "sub-shapes": (lambda: _I2 - Mat.identity(3), ShapeError, "sub shape mismatch"),
    "shift-non-square": (lambda: Mat.zeros(2, 3).minus_scalar(1), ShapeError, "scalar shift"),
    "matmul-shapes": (lambda: Mat.zeros(2, 3) @ Mat.zeros(2, 3), ShapeError, "matmul shape mismatch"),
    # mat_block's refusals, on a one-row grid [A | B] ("hstack") or a
    # one-column grid [A; B] ("vstack"): an empty grid, an empty grid row,
    # mixed modes (within a grid row and across grid rows), unequal heights
    # in a grid row and unequal total widths of the grid rows
    "vstack-nothing": (lambda: mat_block([]), ShapeError, "block grid or grid row of nothing"),
    "hstack-nothing": (lambda: mat_block([[]]), ShapeError, "block grid or grid row of nothing"),
    "hstack-modes": (lambda: mat_block([[_I2, _F2]]), ModeMismatch, "mixed modes in block grid"),
    "vstack-modes": (lambda: mat_block([[_I2], [_F2]]), ModeMismatch, "mixed modes in block grid"),
    "hstack-rows": (lambda: mat_block([[_I2, Mat.zeros(3, 1)]]), ShapeError, "block grid row mismatch"),
    "vstack-cols": (lambda: mat_block([[_I2], [Mat.zeros(1, 3)]]), ShapeError, "block grid col mismatch"),
    "power-non-square": (lambda: mat_power(Mat.zeros(2, 3), 2), ShapeError, "power of a non-square"),
    "chain-non-square": (lambda: kernel_chain(Mat.zeros(2, 3), 2), ShapeError, "kernel chain of a non-square"),
    "solve-rows": (lambda: solve(_I2, Mat.zeros(3, 1)), ShapeError, "solve: row mismatch"),
    "radius-too-large": (lambda: spectral_radius(Mat.zeros(65, 65)), ShapeError, "limited to dimension 64"),
    # a pair the one-pass commutator does not take is left to A @ B - B @ A
    "commutator-shapes": (lambda: commutator(Mat.zeros(2, 3), Mat.zeros(2, 3)), ShapeError, "matmul shape mismatch"),
    "commutator-sizes": (lambda: commutator(_I2, Mat.identity(3)), ShapeError, "matmul shape mismatch"),
    "commutator-modes": (lambda: commutator(_I2, _F2), ModeMismatch, "mixed modes exact/float"),
}


@pytest.mark.parametrize("call, error, message", _LINALG_REFUSALS.values(), ids=_LINALG_REFUSALS)
def test_linalg_refuses_bad_arguments(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@st.composite
def block_grids(draw):
    """Grids of exact or float blocks, zero heights and widths included:
    each grid row has one height and splits one total width at random."""
    mode = draw(st.sampled_from([EXACT, FLOAT]))
    part = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    width, grid = draw(st.integers(0, 4)), []
    for h in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
        cuts = sorted(draw(st.lists(st.integers(0, width), max_size=3)))
        row = []
        for w in (b - a for a, b in zip([0, *cuts], [*cuts, width])):
            ent = draw(st.lists(st.builds(GaussianRational, part, part), min_size=h * w, max_size=h * w))
            row.append(Mat(h, w, ent if mode == EXACT else [v.to_complex() for v in ent], mode))
        grid.append(row)
    return grid


@settings(max_examples=60, deadline=None)
@given(block_grids())
def test_mat_block_is_np_block(grid):
    M = mat_block(grid)
    want = np.block([[m.to_numpy() for m in row] for row in grid])
    assert M.mode == grid[0][0].mode and M.shape == want.shape
    assert np.array_equal(M.to_numpy(), want)


@settings(max_examples=40, deadline=None)
@given(block_grids(), st.data())
def test_columns_picks_the_named_columns_in_order(grid, data):
    M = mat_block(grid)
    js = data.draw(st.lists(st.integers(0, M.cols - 1), max_size=4)) if M.cols else []
    C = M.columns(js)
    assert C.mode == M.mode and C.shape == (M.rows, len(js))
    assert np.array_equal(C.to_numpy(), M.to_numpy()[:, js])


def test_float_identity_zero_test_equality_and_the_empty_spectral_radius():
    assert _F2 == Mat.from_numpy(np.eye(2)) and not _F2.is_zero() and Mat.zeros(2, 2, FLOAT).is_zero()
    # another mode or shape is unequal, and a non-Mat is left to Python
    assert _F2 != _I2 and _F2 != Mat.identity(3, FLOAT) and _I2 != [[1, 0], [0, 1]]
    assert spectral_radius(Mat.zeros(0, 0)) == 0.0


@settings(max_examples=40, deadline=None)
@given(exact_mats())
def test_rank_nullity(M):
    assert rank(M) + kernel_basis(M).cols == M.cols


@settings(max_examples=40, deadline=None)
@given(exact_mats())
def test_exact_kernel_residual_is_zero(M):
    K = kernel_basis(M)
    if K.cols:
        assert (M @ K).is_zero()


@settings(max_examples=40, deadline=None)
@given(exact_mats())
def test_rank_equals_adjoint_rank(M):
    assert rank(M) == rank(M.adjoint())


@settings(max_examples=40, deadline=None)
@given(exact_mats())
def test_rank_matches_independent_oracle(M):
    assert rank(M) == oracle_rank(M)


@settings(max_examples=25, deadline=None)
@given(exact_mats(max_dim=4))
def test_float_kernel_residual_bounded(M):
    F = Mat.from_numpy(M.to_numpy())
    K = kernel_basis(F)
    assert K.cols == kernel_basis(M).cols
    if K.cols:
        resid = (F @ K).fro_norm()
        assert resid <= 1e-9 * max(1.0, F.fro_norm())


def test_float_rank_uses_relative_tolerance():
    arr = np.array([[1.0, 0.0], [0.0, 1e-14]], dtype=complex)
    assert rank(Mat.from_numpy(arr)) == 1
    assert rank(Mat.from_numpy(arr), tol_rank=1e-16) == 2


def test_solve_consistent_and_inconsistent():
    A = Mat.from_rows([[1, 1], [2, 2]])
    X = solve(A, Mat.from_rows([[3], [6]]))
    assert X is not None and (A @ X - Mat.from_rows([[3], [6]])).is_zero()
    assert solve(A, Mat.from_rows([[1], [0]])) is None


@settings(max_examples=40, deadline=None)
@given(exact_mats(), st.data())
def test_exact_solve_matches_rank_criterion(A, data):
    if data.draw(st.booleans()):
        B = A @ data.draw(exact_mats(max_dim=3, rows=A.cols))  # consistent
    else:
        B = data.draw(exact_mats(max_dim=3, rows=A.rows))
    X = solve(A, B)
    consistent = oracle_rank(mat_block([[A, B]])) == oracle_rank(A)
    assert (X is not None) == consistent
    if X is not None:
        assert A @ X == B


@settings(max_examples=40, deadline=None)
@given(exact_mats(), st.data())
def test_kernel_and_solve_parse_no_scalar(A, data):
    # back substitution stays in Gaussian integers and builds each entry
    # in normal form directly, never through the parsing constructor
    if data.draw(st.booleans()):
        A = A @ data.draw(exact_mats(max_dim=3, rows=A.cols))  # often rank-deficient
    B = A @ data.draw(exact_mats(max_dim=3, rows=A.cols))
    parsed = []
    init = GaussianRational.__init__

    def counted(self, *args):
        parsed.append(args)
        init(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GaussianRational, "__init__", counted)
        K, X = kernel_basis(A), solve(A, B)
    assert parsed == []
    assert (A @ K).is_zero() and A @ X == B
    assert K.cols + rank(A) == A.cols


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_independent_columns_are_the_first_ones(mode):
    M = Mat.from_rows([[0, 1, 2, 1], [0, 2, 4, 3]], mode)
    assert independent_columns(M) == [1, 3]


def test_solve_float():
    A = Mat.from_numpy(np.array([[2.0, 0.0], [0.0, 4.0]]))
    B = Mat.from_numpy(np.array([[1.0], [1.0]]))
    X = solve(A, B)
    assert np.allclose(X.to_numpy(), [[0.5], [0.25]])


def test_an_inconsistent_float_system_has_no_solution():
    # least squares gives x = 0, with residual 1
    A = Mat.from_numpy(np.array([[1.0], [0.0]]))
    assert solve(A, Mat.from_numpy(np.array([[0.0], [1.0]]))) is None


def test_nilpotent_power_vanishes():
    N = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert mat_power(N, 3).is_zero()


# -- kernel chains --------------------------------------------------------------


DENOMS = (1, 3, 7, 999_983, 10**6)


def _gr(rng):
    part = lambda: Fraction(rng.randint(-9, 9), rng.choice(DENOMS))
    return GaussianRational(part(), part())


def _chain_matrix(seed, d, blocks):
    """S J S^-1 with complex entries of mixed denominators up to 10**6: J has
    nilpotent Jordan-like blocks of the given sizes at 0 (nonzero entries
    above the diagonal), then nonzero eigenvalues on the rest."""
    rng = get_rng(seed)
    J = [[GaussianRational(0)] * d for _ in range(d)]
    start = 0
    for k in blocks:
        for i in range(start, start + k - 1):
            J[i][i + 1] = _gr(rng) or GaussianRational(1)
        start += k
    for i in range(start, d):
        J[i][i] = _gr(rng) or GaussianRational(1, 1)
    S = random_unimodular(rng, d) @ Mat.from_rows(
        [[(_gr(rng) or 1) if i == j else 0 for j in range(d)] for i in range(d)]
    )
    return S @ Mat.from_rows(J) @ solve(S, Mat.identity(d))


CHAIN_CASES = [(0, 1, ()), (1, 3, (3,)), (2, 4, (2, 1)), (3, 5, (3,)), (4, 5, (2, 2)), (5, 6, (4, 1)), (6, 4, ())]


@pytest.mark.parametrize("seed, d, blocks", CHAIN_CASES)
def test_exact_kernel_chain_is_the_kernel_of_a_power(seed, d, blocks):
    B = _chain_matrix(seed, d, blocks)
    assert max(v.d for i in range(d) for j in range(d) for v in [B.at(i, j)]) > 10**4
    powers = [kernel_basis(mat_power(B, k)) for k in range(1, d + 2)]
    assert powers[-1].cols == sum(blocks)
    assert kernel_chain(B, d) == powers[-1]
    for room in range(d + 1):
        # the first power whose kernel fills room, is {0} or stops growing
        k = 0
        while 0 < powers[k].cols < room and powers[k + 1].cols > powers[k].cols:
            k += 1
        assert kernel_chain(B, room) == powers[k]


def test_exact_kernel_chain_multiplies_no_scalar_and_back_substitutes_once(monkeypatch):
    B = _chain_matrix(3, 5, (3,))
    muls, kernels = [], []
    real_mul, real_kernel = GaussianRational.__mul__, linalg_module._free_kernel

    def counted_mul(a, b):
        muls.append(1)
        return real_mul(a, b)

    def counted_kernel(rows, piv, n):
        kernels.append(n - len(piv))
        return real_kernel(rows, piv, n)

    monkeypatch.setattr(GaussianRational, "__mul__", counted_mul)
    monkeypatch.setattr(GaussianRational, "__rmul__", counted_mul)
    monkeypatch.setattr(linalg_module, "_free_kernel", counted_kernel)
    assert GaussianRational(2) * 3 and muls == [1], "the counter must see scalar products"
    muls.clear()
    E = kernel_chain(B, 5)
    # ker B, ker B^2, ker B^3 and ker B^4 were eliminated; only ker B^3 is built
    assert E.cols == 3 and muls == [] and kernels == [3]


# -- commutators ----------------------------------------------------------------


def _corpus_matrix(rng, d, density, complex_entries, denoms):
    def part():
        return Fraction(rng.randint(-5, 5), rng.choice(denoms))

    ent = [
        GaussianRational(part(), part() if complex_entries else 0) if rng.random() < density else GR_ZERO
        for _ in range(d * d)
    ]
    return Mat(d, d, ent, EXACT)


def _commutator_corpus():
    """Seeded exact pairs, 1x1 to 6x6: sparse and dense, real and complex,
    integer and with denominators, the zero matrix, and commuting pairs
    (B a polynomial in A) next to independent ones."""
    rng = get_rng(36)
    pairs = []
    for k in range(144):
        d = 1 + k % 6
        density = (0.0, 0.25, 0.6, 1.0)[k // 6 % 4]
        denoms = (1,) if k // 24 % 2 else (1, 2, 3, 7, 10**6)
        A = _corpus_matrix(rng, d, density, k // 48 % 3 == 1, denoms)
        if k // 48 % 3 == 2:  # a polynomial in A commutes with it
            B = Mat.identity(d).scale(rng.randint(-3, 3)) + A.scale(rng.randint(-3, 3)) + A @ A
        else:
            B = _corpus_matrix(rng, d, rng.choice((0.25, 0.6, 1.0)), rng.random() < 0.5, denoms)
        pairs.append((A, B))
    return pairs


def _textbook_commutator(A, B):
    d = A.rows
    ent = [
        sum((A.at(i, t) * B.at(t, j) for t in range(d)), GR_ZERO)
        - sum((B.at(i, t) * A.at(t, j) for t in range(d)), GR_ZERO)
        for i in range(d)
        for j in range(d)
    ]
    return Mat(d, d, ent, EXACT)


def test_the_exact_commutator_is_ab_minus_ba_entry_for_entry():
    pairs = _commutator_corpus()
    zero, commuting = 0, 0
    for A, B in pairs:
        C = commutator(A, B)
        assert C == A @ B - B @ A == _textbook_commutator(A, B)
        zero += A.is_zero()
        commuting += C.is_zero()
    # the corpus holds zero matrices, commuting pairs and non-commuting ones
    assert zero > 0 and 0 < commuting < len(pairs)
    assert {A.rows for A, _ in pairs} == {1, 2, 3, 4, 5, 6}


def test_a_noncommuting_exact_pair_is_refused_with_its_pair_and_norm():
    A = Mat.from_rows([[GaussianRational(1, 2), Fraction(1, 3), 0], [0, 2, 0], [0, 0, 1]])
    B = Mat.from_rows([[1, 0, 0], [Fraction(5, 7), 0, GaussianRational(0, 1)], [0, 0, 3]])
    with pytest.raises(NonCommuting) as exc:
        validate_tuple([Mat.identity(3), A, B])
    assert exc.value.pair == (1, 2)
    assert exc.value.norm == (A @ B - B @ A).fro_norm() > 0


def test_a_float_commutator_is_the_difference_of_the_two_products():
    rng = np.random.default_rng(36)
    for d in (1, 3, 6):
        a, b = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2))
        C = commutator(Mat.from_numpy(a), Mat.from_numpy(b))
        assert C.mode == FLOAT and np.array_equal(C.to_numpy(), a @ b - b @ a)


def test_an_exact_tuple_is_checked_without_a_matrix_product(monkeypatch):
    rng = get_rng(5)
    A = _corpus_matrix(rng, 5, 0.6, True, (1, 3))
    mats = [A, A @ A, A.scale(Fraction(2, 3)) + Mat.identity(5), A @ A @ A]
    calls, real_matmul = [], Mat.__matmul__

    def counted_matmul(self, other):
        calls.append(1)
        return real_matmul(self, other)

    monkeypatch.setattr(Mat, "__matmul__", counted_matmul)
    _ = A @ A
    assert calls == [1], "the counter must see matrix products"
    calls.clear()
    assert validate_tuple(mats).n == 4
    assert calls == []
