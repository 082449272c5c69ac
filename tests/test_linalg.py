from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.errors import ShapeError
from koszulkit.linalg import (
    Mat,
    independent_columns,
    kernel_basis,
    mat_hstack,
    mat_power,
    rank,
    solve,
    spectral_radius,
)
from koszulkit.scalars import EXACT, GaussianRational

from oracles import oracle_rank


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
    consistent = oracle_rank(mat_hstack([A, B])) == oracle_rank(A)
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


def test_nilpotent_power_vanishes():
    N = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert mat_power(N, 3).is_zero()
