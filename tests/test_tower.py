import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from koszulkit.ell2 import (
    BandedOperator,
    fredholm_index_banded,
    identity_op,
    make_catalog_operator,
    symbol_winding,
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
from koszulkit.koszul import kernel_restriction_check
from koszulkit.linalg import Mat
from koszulkit.scalars import GaussianRational
from koszulkit.tower import (
    augmented_pair_cohomology,
    commutant_blocks,
    growth_table,
    kernel_tower,
    obstruction_certificate,
)

from oracles import oracle_analytic_pair
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


#: towers with positive index: scalar Toeplitz (Coburn's bound), a
#: weighted shift's adjoint and a patched S* (no bound)
_INDEX_TOWERS = {
    "S*": lambda: make_catalog_operator("adjoint_shift"),
    "S*^2 + iI/4": lambda: make_catalog_operator(
        "toeplitz", symbol={-2: 1, 0: GaussianRational(0, Fraction(1, 4))}
    ),
    "weighted S*": lambda: make_catalog_operator(
        "weighted_shift", prefix=["1/2"], period=[2, 1]
    ).adjoint(),
    "patched S*": lambda: make_catalog_operator("adjoint_shift")
    + BandedOperator.build([], patch=Mat.from_rows([[2, 1], [0, -1]])),
}


@pytest.mark.parametrize("name", sorted(_INDEX_TOWERS))
def test_the_tower_takes_its_index_from_the_winding_and_reads_no_section_of_the_adjoint(
    monkeypatch, name
):
    import koszulkit.ell2 as ell2

    T = _INDEX_TOWERS[name]()
    reads = []
    for helper in ("_factor_section", "_section_nullity"):
        real = getattr(ell2, helper)
        monkeypatch.setattr(ell2, helper, lambda op, N, real=real: reads.append(op) or real(op, N))
    tw = kernel_tower(T, 8)
    assert reads and all(op == T for op in reads)
    assert tw.index == -symbol_winding(T) == fredholm_index_banded(T).index
    assert all(d >= tw.index for d in tw.layer_dims())


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
    # n0 >= 2 needs n0 + 2 <= depth, so depth 4 at least; a shallower
    # tower fails as a deep one without n0 does, and at once
    import koszulkit.ell2 as ell2

    calls = []
    monkeypatch.setattr(ell2, "_factor_section", lambda *args: calls.append(args))
    for depth in (0, 1, 2, 3):
        with pytest.raises(NotStabilized) as exc:
            kernel_tower(backward_shift, depth)
        assert str(exc.value) == (
            f"no stabilization level found within depth {depth} (the last layer dimension "
            "on four levels p to p + 3, with A_n and A_(n+1) invertible for some n > p, "
            "is required); increase the depth"
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
    with pytest.raises(NotStabilized, match=f"^layer {k} has dimension 0, below the index 1; window too small$"):
        kernel_tower(backward_shift, 12)
    assert max(requested) == k


def test_a_layer_larger_than_the_one_below_is_not_stabilized(backward_shift, monkeypatch):
    # a monkeypatched walk adds e4, a vector of ker (S*)^5, to ker (S*)^4:
    # layer 4 has dimension 2 over layer 3's 1, while T still maps
    # ker T^3 into ker T^2 and the basis stays orthonormal, so only the
    # layer-dimension check sees it
    import koszulkit.ell2 as ell2

    real = ell2._chain_kernel

    def grown(T, prev, bound, walk):
        sub = real(T, prev, bound, walk)
        if sub.dim != 4:
            return sub
        e4 = np.zeros((sub.basis.shape[0], 1))
        e4[4] = 1.0
        return ell2.StabilizedSubspace(np.concatenate([sub.basis, e4], axis=1), 5, sub.window)

    monkeypatch.setattr(ell2, "_chain_kernel", grown)
    with pytest.raises(NotStabilized, match="^layer dimension increased from level 3 to 4$"):
        kernel_tower(backward_shift, 4)


def test_tower_with_shrinking_layers():
    # adjoint of a weighted shift with one dead weight: ker has dim 2 at
    # level 1, then the layers settle to dim 1 from p = 2 on, so n0 starts
    # at p + 1 = 3, past the non-square compression at level 2
    W = make_catalog_operator("weighted_shift", prefix=[0, 2], period=[1])
    Wa = W.adjoint()
    tw = kernel_tower(Wa, 8)
    assert tw.layer_dims() == (2, 1, 1, 1, 1, 1, 1, 1)
    assert tw.n0 == 3


def test_n0_skips_a_plateau_with_a_nearly_singular_compression():
    # the adjoint of the weighted shift with weights (1, 10^-9, 1, 1, ...):
    # every layer has dimension 1, but A_3 = 10^-9 is below TOL_LAYER, so
    # n0 is neither 2 (A_2, A_3) nor 3 (A_3, A_4)
    W = make_catalog_operator("weighted_shift", prefix=[1, Fraction(1, 10**9)], period=[1])
    tw = kernel_tower(W.adjoint(), 12)
    assert tw.layer_dims() == (1,) * 12
    assert abs(tw.level(3).a_block[0, 0]) == pytest.approx(1e-9, rel=1e-6)
    assert tw.n0 == 4


def test_a_tower_without_four_levels_of_its_last_layer_size_exits_3(tmp_path, capsys):
    # S* with superdiagonal weights (1, 0, 1, 1, ...): ker S* is spanned by
    # e_0 and e_2, and the layers are (2, 2, 1, 1, 1, 1, ...).  n0 is the
    # first n past p = 3, the first layer of the last size, with n + 2 <= depth
    # and A_n, A_(n+1) invertible: depths 4 and 5 hold none, depth 6 finds n0 = 4
    from koszulkit.cli import main
    from writers import operator_to_json

    T = make_catalog_operator("weighted_shift", prefix=[1, 0], period=[1]).adjoint()
    inp = tmp_path / "op.json"
    inp.write_text(json.dumps(operator_to_json(T)))
    for depth in (4, 5):
        assert main(["tower", "--input", str(inp), "--max-level", str(depth)]) == 3
        assert capsys.readouterr().err == (
            f"error[NotStabilized]: no stabilization level found within depth {depth} (the last "
            "layer dimension on four levels p to p + 3, with A_n and A_(n+1) invertible for some "
            "n > p, is required); increase the depth\n"
        )
    tw = kernel_tower(T, 6)
    assert (tw.layer_dims(), tw.n0) == ((2, 2, 1, 1, 1, 1), 4)


def test_a_large_multiple_of_a_tower_fails_the_absolute_triangular_residual(backward_shift):
    # T maps H_1 = ker T to 0, so T's block on H_1 is rounding: about 2e-5
    # for 10^12 (S* - I/2).  The chain steps accept it, their residual
    # being relative to the section's norm; the triangular residual's
    # TOL_INTERTWINE is absolute, so this pins today's refusal of large T
    T = (backward_shift - identity_op().scale(Fraction(1, 2))).scale(10**12)
    with pytest.raises(NotStabilized, match="triangular structure violated at level 2"):
        kernel_tower(T, 12)


@pytest.mark.xfail(
    strict=True,
    reason="the n0 search compares sigma_min(A_n) with the absolute TOL_LAYER, so a small "
    "multiple of a tower it accepts has no stabilization level",
)
def test_a_small_multiple_of_a_tower_has_its_stabilization_level(backward_shift):
    # the small-scale twin of the triangular residual above: every A_n of
    # 10^-8 (S* - I/2) has sigma_min = 7.5e-9, below TOL_LAYER = 1e-8, though
    # 10^-7 (S* - I/2) passes.  A rule relative to ||T|| would accept it
    tw = kernel_tower((backward_shift - identity_op().scale(Fraction(1, 2))).scale(Fraction(1, 10**8)), 12)
    assert (tw.layer_dims(), tw.n0) == ((1,) * 12, 2)


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


def test_intertwining_residuals_read_the_a_blocks_of_the_levels_given(backward_shift):
    # a tower rebuilt with A_3 + 1/2 (entrywise) in its level 3: the
    # residual at level 3 is X_2 A_3' - A_3' X_3 of that block, not of the
    # walked one, and the other levels keep theirs
    tw = kernel_tower(backward_shift.power(2), 6)
    levels = list(tw.levels)
    levels[2] = replace(levels[2], a_block=levels[2].a_block + 0.5)
    bent = replace(tw, levels=tuple(levels))
    walked, blocks = commutant_blocks(tw, backward_shift), commutant_blocks(bent, backward_shift)
    for n in range(2, bent.depth + 1):
        a, x, prev = bent.level(n).a_block, blocks.level(n).x_block, blocks.level(n - 1).x_block
        inter = float(np.abs(prev @ a - a @ x).max())
        assert abs(blocks.level(n).intertwine_residual - inter) <= 1e-15 * max(1.0, inter)
        if n != 3:
            assert blocks.level(n).intertwine_residual == walked.level(n).intertwine_residual
    assert blocks.level(3).intertwine_residual > 0.1 > walked.level(3).intertwine_residual


def _bend_corner(W, B, Q, row, col, e):
    """(W, B) with e added to B[row, col] and to W by the same amount, so
    that R = W - Q B is unchanged: S seems to send column col of the tower
    basis e along column row."""
    Qp = np.vstack([Q, np.zeros((W.shape[0] - Q.shape[0], Q.shape[1]))])
    W, B = W.astype(complex), B.astype(complex)
    B[row, col] += e
    W[:, col] += e * Qp[:, row]
    return W, B


def _commutant_by_level(tower, W, B):
    """The per-level loop: for each level n, X_n = B[l:h, l:h] with H_n
    the columns l:h, X_(n-1) A_n - A_n X_n, and the message of the first
    failing check, its invariance residual (``_per_level_checks``'
    formula) before its upper-right corner max |B[l:h, :l]|."""
    Q = np.hstack([lv.h_basis for lv in tower.levels])
    Qp = np.vstack([Q, np.zeros((W.shape[0] - Q.shape[0], Q.shape[1]))])
    xs, inters, error, h = [], [], None, 0
    for lv in tower.levels:
        n, l, h = lv.n, h, h + lv.dim
        img = W[:, :h]
        resid = np.linalg.norm(img - Qp[:, :h] @ B[:h, :h]) / max(1.0, np.linalg.norm(img))
        corner = np.abs(B[l:h, :l]).max(initial=0.0)
        if error is None and resid > 1e-10:
            error = (
                f"ker T^{n} is not invariant under the operator (residual {resid:.3e}); "
                "window too small or genuinely non-commuting"
            )
        elif error is None and corner > 1e-10:
            error = f"block upper-right corner at level {n} is {corner:.3e}, triangular structure violated"
        x = B[l:h, l:h]
        inters.append(None if n == 1 else float(np.abs(xs[-1] @ lv.a_block - lv.a_block @ x).max()))
        xs.append(x)
    return xs, inters, error


def _s_star_poly(coeffs):
    return make_catalog_operator("adjoint_shift").poly(coeffs)


#: towers of polynomials in S*, and operators that commute with them
_PER_LEVEL_TOWERS = {
    "S*^2": lambda: _s_star_poly([0, 0, 1]),
    "S*^2 + iI/4": lambda: _s_star_poly([GaussianRational(0, Fraction(1, 4)), 0, 1]),
    "S* - I/2": lambda: _s_star_poly([Fraction(-1, 2), 1]),
    "S*^3": lambda: _s_star_poly([0, 0, 0, 1]),
}
_PER_LEVEL_OPERATORS = ([2, 1], [Fraction(1, 3), -1, 0, 2])


@pytest.mark.parametrize("name", sorted(_PER_LEVEL_TOWERS))
def test_the_one_pass_commutant_is_the_per_level_loop(monkeypatch, name):
    import koszulkit.tower as tower

    tw = kernel_tower(_PER_LEVEL_TOWERS[name](), 8)
    Q = np.hstack([lv.h_basis for lv in tw.levels])
    real, given = tower._compress, {}
    monkeypatch.setattr(tower, "_compress", lambda op, Q: given.get("WB") or real(op, Q))
    for coeffs in _PER_LEVEL_OPERATORS:
        S = _s_star_poly(coeffs)
        W, B = real(S, Q)
        blocks = commutant_blocks(tw, S)
        xs, inters, error = _commutant_by_level(tw, W, B)
        assert error is None
        resid, _ = _per_level_checks(tw, S)
        for lv, x, inter, r in zip(blocks.levels, xs, inters, resid):
            assert np.array_equal(lv.x_block, x)
            assert (lv.intertwine_residual is None) == (inter is None)
            if inter is not None:
                assert abs(lv.intertwine_residual - inter) <= 1e-15 * max(1.0, inter)
            assert abs(lv.invariance_residual - r) <= 1e-14
        # a corner bent at each level: a large S sees it first in the
        # corner, a small one in the invariance residual of a level below
        for k in range(2, tw.depth + 1):
            row = sum(tw.layer_dims()[: k - 1])
            for scale, e in ((1000, 1e-9), (1, 1e-6)):
                W, B = real(S.scale(scale), Q)
                given["WB"] = _bend_corner(W, B, Q, row, 0, e)
                error = _commutant_by_level(tw, *given["WB"])[2]
                assert error is not None
                with pytest.raises(InvarianceViolation) as exc:
                    commutant_blocks(tw, S.scale(scale))
                assert str(exc.value) == error
                del given["WB"]


def test_a_corner_below_the_invariance_tolerance_names_its_level(backward_shift, monkeypatch):
    # S = 100 I with e0 sent 1e-9 along e2, the basis of H_3: ker T and
    # ker T^2 stay invariant to 1e-9 / 100, within the tolerance 1e-10,
    # but the corner of level 3 (H_3's row of the columns of ker T^2) is not
    import koszulkit.tower as tower

    tw = kernel_tower(backward_shift, 8)
    Q = np.hstack([lv.h_basis for lv in tw.levels])
    real = tower._compress
    monkeypatch.setattr(tower, "_compress", lambda op, Q: _bend_corner(*real(op, Q), Q, 2, 0, 1e-9))
    with pytest.raises(InvarianceViolation) as exc:
        commutant_blocks(tw, identity_op().scale(100))
    assert str(exc.value) == (
        "block upper-right corner at level 3 is 1.000e-09, triangular structure violated"
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


def test_restriction_refuses_a_float_pair_that_moves_the_kernel():
    # diag(0, 1e-11) and S commute up to 1e-11, within TOL_COMM, and the
    # pair is invertible; but S e_0 = e_0 + e_1 leaves ker T = span e_0
    T = Mat.from_numpy(np.diag([0.0, 1e-11]))
    S = Mat.from_numpy(np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(InvarianceViolation, match="^restriction did not preserve the kernel"):
        kernel_restriction_check(T, S, 1)


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


def test_corners_of_one_size_off_the_intertwining_identity_are_not_certified_similar(backward_shift):
    # K = 2I + S* on the tower of S*^2: every corner is 2I plus a nonzero
    # nilpotent, all 2 x 2 with one characteristic polynomial, and K
    # obstructs.  A tower rebuilt with A_8 D, D = diag(1, 2), which commutes
    # with no such corner, breaks X_7 A_8 = A_8 X_8 alone: no certificate
    tw = kernel_tower(backward_shift.power(2), 10)
    K = identity_op().scale(2) + backward_shift
    assert obstruction_certificate(tw, K).verdict == "obstructed"
    levels = list(tw.levels)
    levels[7] = replace(levels[7], a_block=levels[7].a_block @ np.diag([1.0, 2.0]))
    cert = obstruction_certificate(replace(tw, levels=tuple(levels)), K)
    assert max(cert.blocks.charpoly_max_diff.values()) <= 1e-12
    assert [n for n in range(2, 11) if cert.blocks.level(n).intertwine_residual > 1e-9] == [8]
    assert not cert.blocks.similarity_certified
    assert cert.r == pytest.approx(2.0, abs=1e-12)
    assert cert.verdict == "inconclusive"


def test_n0_lies_on_the_last_plateau_so_a_split_off_jordan_block_still_obstructs():
    # S* with a 4 x 4 nilpotent Jordan block split off (weight 0 at e_3):
    # H_n is spanned by e_(n-1) and e_(n+3) up to n = 4, then by e_(n+3).
    # The last layer size starts at p = 5, so n0 = 6, and every corner
    # from n0 on is 1 x 1: K = 2I has r = 2 and certified similar corners
    T = make_catalog_operator("weighted_shift", prefix=[1, 1, 1, 0], period=[1]).adjoint()
    tw = kernel_tower(T, 12)
    assert (tw.index, tw.n0, tw.layer_dims()) == (1, 6, (2, 2, 2, 2) + (1,) * 8)
    cert = obstruction_certificate(tw, identity_op().scale(2))
    diffs = cert.blocks.charpoly_max_diff
    assert list(diffs) == list(range(7, 13))
    assert all(np.isfinite(v) and v <= 1e-12 for v in diffs.values())
    assert cert.blocks.similarity_certified
    assert cert.r == pytest.approx(2.0, abs=1e-12)
    assert cert.verdict == "obstructed"


def test_obstruction_needs_every_layer_past_n0_bounded_below_by_r(backward_shift, monkeypatch):
    # exactly, ||K on H_n|| >= ||X_n|| >= r for X_n similar to X_n0; in
    # floats the corners are similar only up to TOL_CHARPOLY, which can move
    # a repeated eigenvalue by its square root, so the verdict reads the
    # norms too.  A layer norm below r, patched in here, makes it
    # inconclusive
    import dataclasses

    import koszulkit.tower as tower

    real = tower.commutant_blocks

    def weak_last_layer(tw, S):
        blocks = real(tw, S)
        last = dataclasses.replace(blocks.levels[-1], norm=1.0)
        return dataclasses.replace(blocks, levels=blocks.levels[:-1] + (last,))

    monkeypatch.setattr(tower, "commutant_blocks", weak_last_layer)
    cert = obstruction_certificate(
        kernel_tower(backward_shift, 12), identity_op().scale(2) + backward_shift
    )
    assert cert.blocks.similarity_certified and cert.r == pytest.approx(2.0, abs=1e-8)
    assert cert.norms[12] == 1.0
    assert cert.verdict == "inconclusive"


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


def _in_backward_shift(coeffs):
    """sum_k c_k S*^k for coefficients lowest degree first: the Toeplitz
    operator with symbol sum_k c_k z^(-k); the zero operator for none."""
    sym = {-k: c for k, c in enumerate(coeffs) if c}
    return make_catalog_operator("toeplitz", symbol=sym) if sym else zero_op()


def _from_roots(roots):
    """Coefficients of prod (z - lam), lowest degree first."""
    p = [Fraction(1)]
    for lam in roots:
        p = [a - lam * b for a, b in zip([0, *p], [*p, 0])]
    return p


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
#: (roots of f, coefficients of g): roots inside and outside the disc,
#: repeated roots, g sharing some or all of them, and K = 0
_ANALYTIC_PAIRS = [
    ([_HALF], [0, 1]), ([_HALF], [2, 1]), ([_HALF], [-_HALF, 1]),
    ([_HALF, -_THIRD], [-_HALF, 1]), ([_HALF, -_THIRD], [_THIRD, 1]), ([_HALF, -_THIRD], [0, 0, 1]),
    ([_HALF, 2], [1, 1]), ([_HALF, 3], [-_HALF, 1]), ([_HALF, -_HALF], [_HALF, 1]),
    ([0, 0], [2, 1]), ([0, 0], [0, 1]), ([_HALF, _HALF], [1, 1]),
    ([Fraction(1, 4)], []), ([0, 0, 0], [0, 1]),
]
#: the float radius of the nilpotent 3 x 3 corner of S*^3 under K = S* is
#: 4.6e-6 where it is 0 (ROADMAP defect 3, item 9)
_DEFECT_3 = {((0, 0, 0), (0, 1))}


@pytest.mark.parametrize(
    "f_roots, g",
    [
        pytest.param(
            f, g, id=f"f[{','.join(map(str, f))}]-g[{','.join(map(str, g))}]",
            marks=[pytest.mark.xfail(
                strict=True,
                reason="defect 3 (ROADMAP item 9): a nilpotent corner's float radius clears TOL_RADIUS",
            )] if (tuple(f), tuple(g)) in _DEFECT_3 else [],
        )
        for f, g in _ANALYTIC_PAIRS
    ],
)
def test_a_pair_of_polynomials_in_the_backward_shift_meets_the_exact_oracle(f_roots, g):
    index, r, verdict = oracle_analytic_pair(f_roots, g)
    try:
        tw = kernel_tower(_in_backward_shift(_from_roots(f_roots)), 8)
        cert = obstruction_certificate(tw, _in_backward_shift(g))
    except (NotStabilized, InvarianceViolation):
        return
    assert tw.index == index
    assert abs(cert.r - float(r)) <= 1e-8 * (1 + float(r))
    assert cert.verdict == verdict


@pytest.mark.parametrize("h", range(1, 6))
def test_a_certificate_reads_r_off_its_one_eigenvalue_call(monkeypatch, h):
    # the eigenvalues commutant_blocks takes for the characteristic
    # polynomials give r too: max |eig| of X_n0 cast to complex, bit for bit
    tw = kernel_tower(_in_backward_shift([0] * h + [1]), 8)
    real, calls = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or real(a))
    for g in ([0, 1], [2, 1], [0, 0, 1], [1, 3], [1], []):
        calls.clear()
        cert = obstruction_certificate(tw, _in_backward_shift(g))
        assert len(calls) == 1
        x0 = cert.blocks.level(tw.n0).x_block.astype(complex)
        assert cert.r == cert.blocks.radius == float(np.abs(real(x0)).max())


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
