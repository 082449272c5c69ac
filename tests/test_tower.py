from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from koszulkit.ell2 import (
    identity_op,
    make_catalog_operator,
    zero_op,
)
from koszulkit.errors import (
    FormatError,
    IndexSignError,
    IndexZeroError,
    InvarianceViolation,
    NonCommuting,
    NotStabilized,
    PreconditionError,
)
from koszulkit.linalg import Mat
from koszulkit.scalars import GaussianRational
from koszulkit.tower import (
    augmented_pair_cohomology,
    commutant_blocks,
    growth_table,
    kernel_restriction_check,
    kernel_tower,
    obstruction_certificate,
)

from randgen import get_rng, random_invertible_pair


# -- kernel towers ------------------------------------------------------------


def test_backward_shift_tower(backward_shift):
    tw = kernel_tower(backward_shift, 12)
    assert tw.layer_dims() == (1,) * 12
    assert tw.kernel_dims == tuple(range(1, 13))
    assert tw.n0 == 2
    for n in range(2, 13):
        A = tw.level(n).a_block
        assert A.shape == (1, 1)
        assert abs(A[0, 0] - 1.0) <= 1e-9


def test_squared_shift_tower(backward_shift):
    tw = kernel_tower(backward_shift.power(2), 8)
    assert tw.layer_dims() == (2,) * 8


def test_tower_needs_positive_index(forward_shift):
    with pytest.raises(IndexSignError):
        kernel_tower(forward_shift, 6)
    with pytest.raises(IndexSignError):
        kernel_tower(identity_op(), 6)


def test_tower_orthogonality(backward_shift):
    tw = kernel_tower(backward_shift.power(2), 6)
    allb = np.hstack([lv.h_basis for lv in tw.levels])
    gram = allb.conj().T @ allb
    assert float(np.abs(gram - np.eye(gram.shape[0])).max()) <= 1e-10


def test_tower_layer_dims_nonincreasing(backward_shift):
    # mixed operator: (S*)^2 with a finite-rank patch still stabilizes
    from koszulkit.ell2 import BandedOperator

    patch = Mat.from_rows([[1, 0], [0, 0]])
    T = backward_shift.power(2) + BandedOperator.build([], patch=patch)
    tw = kernel_tower(T, 8)
    dims = tw.layer_dims()
    for n in range(2, len(dims)):
        assert dims[n - 1] >= dims[n]


def test_shallow_tower_not_stabilized(backward_shift):
    with pytest.raises(NotStabilized):
        kernel_tower(backward_shift, 3)


def test_shallow_tower_fails_before_any_section(backward_shift, monkeypatch):
    # n0 needs three equal layers after level 1, so depth 4 at least; a
    # shallower tower fails as a deep one without n0 does, and at once
    import koszulkit.ell2 as ell2

    calls = []
    monkeypatch.setattr(ell2, "_factor_section", lambda *args: calls.append(args))
    for depth in (0, 1, 2, 3):
        with pytest.raises(NotStabilized) as exc:
            kernel_tower(backward_shift, depth)
        assert str(exc.value) == (
            f"no stabilization level found within depth {depth} (three equal layer "
            "dimensions with invertible compressions are required); increase the depth"
        )
    assert calls == []


@pytest.mark.parametrize("k", [2, 5])
def test_tower_walk_stops_at_the_first_vanished_layer(backward_shift, monkeypatch, k):
    # a healthy operator whose kernel dimension is made to stop growing at
    # power k: the walk must fail there and never ask for power k + 1
    import koszulkit.ell2 as ell2

    real, requested = ell2._chain_kernel, []

    def capped(T, prev, bound, factor):
        m = prev.dim + 1  # prev = ker (S*)^(m-1) has dimension m - 1
        requested.append(m)
        return prev if m >= k else real(T, prev, bound, factor)

    monkeypatch.setattr(ell2, "_chain_kernel", capped)
    with pytest.raises(NotStabilized, match=f"layer {k} vanished"):
        kernel_tower(backward_shift, 12)
    assert max(requested) == k


def test_tower_with_shrinking_layers():
    # adjoint of a weighted shift with one dead weight: ker has dim 2 at
    # level 1, then the layers settle to dim 1, so the plateau detector
    # must skip the non-square compression at level 2
    W = make_catalog_operator("weighted_shift", prefix=[0, 2], period=[1])
    Wa = W.adjoint()
    tw = kernel_tower(Wa, 8)
    assert tw.layer_dims() == (2, 1, 1, 1, 1, 1, 1, 1)
    assert tw.n0 == 3


def test_two_dimensional_layers_obstruction(backward_shift):
    # T = (backward shift)^2 has index 2; K = 2I + backward shift commutes
    # and compresses to [[2, 0], [1, 2]] blocks on the 2-dim layers
    T2 = backward_shift.power(2)
    K = identity_op().scale(2) + backward_shift
    tw = kernel_tower(T2, 10)
    cert = obstruction_certificate(tw, K)
    assert tw.layer_dims() == (2,) * 10
    assert cert.verdict == "obstructed"
    assert cert.r == pytest.approx(2.0, abs=1e-8)
    blocks = commutant_blocks(tw, K)
    # in the layer's own orthonormal basis: X - 2I is nilpotent of norm 1,
    # which holds exactly for the unitary conjugates of [[2, 0], [1, 2]]
    nil = blocks.level(4).x_block - 2 * np.eye(2)
    assert np.abs(nil @ nil).max() <= 1e-8
    assert np.linalg.norm(nil, 2) == pytest.approx(1.0, abs=1e-8)
    assert blocks.similarity_certified


def test_tower_block_decomposition_reconstructs_the_operator(backward_shift):
    # on ker T^n = H_n + ker T^(n-1), the action of T is
    # [[A_n, 0], [B_n, C_n]] into H_(n-1) + ker T^(n-2)
    T = backward_shift.power(2)
    tw = kernel_tower(T, 6)
    for n in (3, 4, 5):
        lv = tw.level(n)
        H_n = lv.h_basis
        H_prev = tw.level(n - 1).h_basis
        Q_nm1 = np.hstack([tw.level(k).h_basis for k in range(1, n)])
        Q_nm2 = np.hstack([tw.level(k).h_basis for k in range(1, n - 1)])
        L = H_n.shape[0]
        sec = T.section(L, L)
        img = sec @ H_n
        recon = H_prev @ lv.a_block + Q_nm2 @ lv.b_block
        assert np.allclose(img, recon, atol=1e-9)
        img_q = sec @ Q_nm1
        recon_q = Q_nm2 @ lv.c_block  # zero block above C_n
        assert np.allclose(img_q, recon_q, atol=1e-9)


# -- commutant blocks -----------------------------------------------------------


def test_identity_commutant(backward_shift):
    tw = kernel_tower(backward_shift, 8)
    blocks = commutant_blocks(tw, identity_op())
    for lv in blocks.levels:
        assert np.allclose(lv.x_block, np.eye(lv.x_block.shape[0]), atol=1e-10)
    assert blocks.similarity_certified


def test_shifted_identity_commutant(backward_shift):
    tw = kernel_tower(backward_shift, 12)
    S = identity_op().scale(2) + backward_shift
    blocks = commutant_blocks(tw, S)
    for lv in blocks.levels:
        assert lv.x_block.shape == (1, 1)
        assert abs(lv.x_block[0, 0] - 2.0) <= 1e-9
        if lv.n >= 2:
            assert lv.intertwine_residual <= 1e-9
    assert blocks.similarity_certified


def test_backward_shift_self_commutant(backward_shift):
    tw = kernel_tower(backward_shift, 8)
    blocks = commutant_blocks(tw, backward_shift)
    for lv in blocks.levels:
        assert abs(lv.x_block[0, 0]) <= 1e-10


def test_commutant_rejects_noncommuting(backward_shift, forward_shift):
    tw = kernel_tower(backward_shift, 6)
    with pytest.raises(NonCommuting):
        commutant_blocks(tw, forward_shift)


def test_similarity_chain_for_polynomials(backward_shift):
    tw = kernel_tower(backward_shift, 12)
    rng = get_rng(5)
    for _ in range(6):
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        S = backward_shift.poly(coeffs)
        blocks = commutant_blocks(tw, S)
        ref = blocks.charpoly_reference
        for n, diff in blocks.charpoly_max_diff.items():
            assert diff <= 1e-8
        assert blocks.similarity_certified


def _per_level_checks(tower, S):
    """Each level's invariance residual by its own formula,
    ||W[:, :hi] - Q[:, :hi] B[:hi, :hi]|| / max(1, ||W[:, :hi]||) with
    ker T^n the first hi columns of Q, and ||S restricted to H_n||."""
    Q = np.hstack([lv.h_basis for lv in tower.levels])
    W = S.apply(Q)
    Qp = np.vstack([Q, np.zeros((W.shape[0] - Q.shape[0], Q.shape[1]))])
    B = Qp.conj().T @ W
    resid, norms, hi = [], [], 0
    for lv in tower.levels:
        lo, hi = hi, hi + lv.dim
        img = W[:, :hi]
        resid.append(np.linalg.norm(img - Qp[:, :hi] @ B[:hi, :hi]) / max(1.0, np.linalg.norm(img)))
        norms.append(np.linalg.norm(W[:, lo:hi], 2))
    return resid, norms


def _weighted_adjoint_shift():
    # weights 0, 2, 1, 1, ...: the layer dimension drops from 2 to 1
    return make_catalog_operator("weighted_shift", prefix=[0, 2], period=[1]).adjoint()


#: (T, S) with S commuting with T: 1-dim layers, complex 2-dim layers,
#: and layers of dimensions 2, 1, 1, ...
_COMMUTANT_CASES = {
    "S*, S = 2I + S*": lambda: (
        make_catalog_operator("adjoint_shift"),
        identity_op().scale(2) + make_catalog_operator("adjoint_shift"),
    ),
    "S*^2 + iI/4, S = S*": lambda: (
        make_catalog_operator("toeplitz", symbol={-2: 1, 0: GaussianRational(0, Fraction(1, 4))}),
        make_catalog_operator("adjoint_shift"),
    ),
    "weighted S*, S = 3I - T + T^2": lambda: (
        _weighted_adjoint_shift(),
        _weighted_adjoint_shift().poly([3, -1, 1]),
    ),
}


@pytest.mark.parametrize("name", sorted(_COMMUTANT_CASES))
def test_one_pass_commutant_checks_match_the_per_level_formulas(name):
    T, S = _COMMUTANT_CASES[name]()
    tw = kernel_tower(T, 8)
    blocks = commutant_blocks(tw, S)
    resid, norms = _per_level_checks(tw, S)
    for lv, r, norm in zip(blocks.levels, resid, norms):
        assert abs(lv.invariance_residual - r) <= 1e-14
        assert abs(lv.norm - norm) <= 1e-14 * max(1.0, norm)
    # the batched characteristic polynomials are np.poly's, level by level
    ref = np.poly(blocks.level(tw.n0).x_block)
    assert np.abs(blocks.charpoly_reference - ref).max() <= 1e-14
    for n, diff in blocks.charpoly_max_diff.items():
        assert abs(diff - np.abs(np.poly(blocks.level(n).x_block) - ref).max()) <= 1e-14
    assert blocks.similarity_certified


def test_the_first_level_the_operator_leaves_raises_as_its_per_level_formula_does(
    backward_shift,
):
    # mixing H_3 = span(e2) with H_5 = span(e4) keeps the basis orthonormal,
    # but S* sends (e2 + e4)/sqrt(2) off span(e0, e1, (e2 + e4)/sqrt(2))
    tw = kernel_tower(backward_shift, 8)
    h3, h5 = tw.level(3).h_basis, tw.level(5).h_basis
    levels = list(tw.levels)
    levels[2] = replace(levels[2], h_basis=(h3 + h5) / np.sqrt(2))
    levels[4] = replace(levels[4], h_basis=(h3 - h5) / np.sqrt(2))
    bent = replace(tw, levels=tuple(levels))
    resid, _ = _per_level_checks(bent, backward_shift)
    assert [r > 1e-10 for r in resid[:3]] == [False, False, True]
    with pytest.raises(InvarianceViolation) as exc:
        commutant_blocks(bent, backward_shift)
    assert str(exc.value) == (
        f"ker T^3 is not invariant under the operator (residual {resid[2]:.3e}); "
        "window too small or genuinely non-commuting"
    )


# -- matrix-pair kernel restriction ----------------------------------------------


def test_restriction_vacuous_for_invertible():
    T = Mat.from_rows([[2, 0], [0, 3]])
    assert kernel_restriction_check(T, Mat.identity(2), 3)


def test_restriction_unipotent_pair():
    N = Mat.from_rows([[0, 1], [0, 0]])
    S = Mat.identity(2) + N
    for n in (1, 2):
        assert kernel_restriction_check(N, S, n)


def test_restriction_rejects_noninvertible_pair():
    N = Mat.from_rows([[0, 1], [0, 0]])
    with pytest.raises(PreconditionError):
        kernel_restriction_check(N, N, 1)


def test_restriction_on_random_invertible_pairs(rng):
    for _ in range(20):
        T, S = random_invertible_pair(rng, rng.randint(2, 4))
        for n in (1, 2, 3):
            assert kernel_restriction_check(T, S, n)


# -- obstruction certificates ------------------------------------------------------


def test_obstruction_for_shifted_identity(backward_shift):
    K = identity_op().scale(2) + backward_shift
    tw = kernel_tower(backward_shift, 12)
    cert = obstruction_certificate(tw, K)
    assert cert.verdict == "obstructed"
    assert cert.r == pytest.approx(2.0, abs=1e-8)
    assert tw.n0 <= 3
    for n in range(1, 13):
        assert cert.norms[n] >= 2.0 - 1e-8


def test_obstruction_certificate_carries_the_commutant_blocks(backward_shift):
    K = identity_op().scale(2) + backward_shift
    tw = kernel_tower(backward_shift, 8)
    cert = obstruction_certificate(tw, K)
    direct = commutant_blocks(tw, K)
    for n in range(1, tw.depth + 1):
        assert np.array_equal(cert.blocks.level(n).x_block, direct.level(n).x_block)


def test_obstruction_needs_certified_similar_corner_blocks(backward_shift, monkeypatch):
    import dataclasses

    import koszulkit.tower as tower

    real = tower.commutant_blocks
    monkeypatch.setattr(
        tower,
        "commutant_blocks",
        lambda tw, S: dataclasses.replace(real(tw, S), similarity_certified=False),
    )
    cert = obstruction_certificate(
        kernel_tower(backward_shift, 12), identity_op().scale(2) + backward_shift
    )
    assert cert.verdict == "inconclusive"
    assert cert.r == pytest.approx(2.0, abs=1e-8)  # r alone would obstruct


def test_obstruction_inconclusive_for_shift_itself(backward_shift):
    cert = obstruction_certificate(kernel_tower(backward_shift, 10), backward_shift)
    assert cert.verdict == "inconclusive"
    assert cert.r <= 1e-8


def test_obstruction_inconclusive_for_zero(backward_shift):
    cert = obstruction_certificate(kernel_tower(backward_shift, 8), zero_op())
    assert cert.verdict == "inconclusive"
    assert cert.r == 0.0


def test_layer_norms_of_identity_and_zero(backward_shift):
    tw = kernel_tower(backward_shift.power(2), 6)
    ones = obstruction_certificate(tw, identity_op()).norms
    zeros = obstruction_certificate(tw, zero_op()).norms
    for n in range(1, 7):
        assert ones[n] == pytest.approx(1.0)
        assert zeros[n] == 0.0


def test_tower_and_certificate_apply_each_operator_once(backward_shift, monkeypatch, tmp_path):
    from koszulkit.cli import main
    from koszulkit.ell2 import BandedOperator

    calls = []
    real = BandedOperator.apply
    monkeypatch.setattr(BandedOperator, "apply", lambda op, v: calls.append(1) or real(op, v))
    tw = kernel_tower(backward_shift, 12)
    assert len(calls) == 1
    obstruction_certificate(tw, identity_op().scale(2) + backward_shift)
    assert len(calls) == 2
    calls.clear()
    assert main(["demo", "theorem-2.1", "--out", str(tmp_path / "d.json")]) == 0
    assert len(calls) == 4  # one tower, three perturbations


def test_obstruction_monotone_in_depth(backward_shift):
    K = identity_op().scale(2) + backward_shift
    shallow = obstruction_certificate(kernel_tower(backward_shift, 6), K)
    deep = obstruction_certificate(kernel_tower(backward_shift, 12), K)
    assert shallow.verdict == "obstructed"
    assert deep.verdict == "obstructed"


# -- growth tables ---------------------------------------------------------------


def test_growth_table_backward_shift(backward_shift):
    table = growth_table(backward_shift, range(1, 11), 4)
    for row in table.rows:
        assert row.dim_ker == row.m
        assert row.dim_coker == 0
        assert row.index == row.m * table.base_index
        assert row.exceeds == (row.m >= 5)


def test_growth_table_keeps_unsorted_and_repeated_powers(backward_shift):
    table = growth_table(backward_shift, [5, 2, 2], 4)
    assert [row.m for row in table.rows] == [5, 2, 2]
    for row in table.rows:
        assert row.dim_ker == row.m


def test_growth_table_toeplitz_square():
    T = make_catalog_operator("toeplitz", symbol={2: 1})
    table = growth_table(T, range(1, 6), 4)
    for row in table.rows:
        assert row.dim_coker == 2 * row.m
        assert row.dim_ker == 0
        assert row.index == -2 * row.m


def test_growth_table_refuses_a_negative_rank_bound(backward_shift):
    with pytest.raises(FormatError, match="rank_bound >= 0"):
        growth_table(backward_shift, [1, 2], -3)


def test_growth_table_rejects_index_zero():
    with pytest.raises(IndexZeroError):
        growth_table(identity_op(), [1, 2], 4)


# -- augmented pair cohomology ------------------------------------------------------


def test_pair_cohomology_linear(backward_shift):
    rep = augmented_pair_cohomology(backward_shift, [0, 1])
    assert rep.dims == (1, 1, 0)
    assert rep.index == 0


def test_pair_cohomology_square(backward_shift):
    rep = augmented_pair_cohomology(backward_shift, [0, 0, 1])
    assert rep.dims == (1, 1, 0)
    assert rep.index == 0


def test_pair_cohomology_zero_polynomial(backward_shift):
    T2 = make_catalog_operator("toeplitz", symbol={2: 1}).adjoint()
    for T in (backward_shift, T2):
        k = kernel_tower(T, 5).kernel_dims[0]
        rep = augmented_pair_cohomology(T, [0])
        assert rep.dims == (k, k, 0)
        assert rep.index == 0


def test_pair_cohomology_needs_a_fredholm_operator(backward_shift):
    # S* - I has symbol 1/z - 1, which vanishes at z = 1
    with pytest.raises(PreconditionError):
        augmented_pair_cohomology(backward_shift - identity_op(), [0, 1])


def test_pair_cohomology_needs_vanishing_constant(backward_shift):
    from koszulkit.errors import FormatError

    with pytest.raises(FormatError):
        augmented_pair_cohomology(backward_shift, [1, 1])


def test_pair_cohomology_with_cokernel():
    # T = toeplitz(z)* has ker = e0-span and trivial cokernel; its adjoint
    # (the forward shift) flips the roles
    T = make_catalog_operator("toeplitz", symbol={1: 1})
    rep = augmented_pair_cohomology(T, [0, 1])
    assert rep.index == 0
    assert rep.dims == (0, 1, 1)
