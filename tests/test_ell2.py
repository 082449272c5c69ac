import json
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.ell2 import (
    BandedOperator,
    Diagonal,
    KernelWalk,
    fredholm_index_banded,
    identity_op,
    make_catalog_operator,
    symbol_winding,
    zero_op,
)
from koszulkit.errors import FormatError, NotStabilized, PreconditionError
from koszulkit.jsonio import operator_from_json
from koszulkit.linalg import Mat
from koszulkit.scalars import GR_ONE, GR_ZERO, GaussianRational
from koszulkit.tower import kernel_tower

from oracles import oracle_kernel_dims, oracle_section_kernel, oracle_winding


@st.composite
def banded_ops(draw, max_bw=2, max_prefix=3, max_period=2):
    diags = []
    for o in range(-max_bw, max_bw + 1):
        if not draw(st.booleans()):
            continue
        pre = draw(st.lists(st.integers(-2, 2), max_size=max_prefix))
        per = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=max_period))
        diags.append(
            Diagonal(
                o,
                tuple(GaussianRational(v) for v in pre),
                tuple(GaussianRational(v) for v in per),
            )
        )
    patch = None
    if draw(st.booleans()):
        p = draw(st.integers(1, 2))
        ent = draw(st.lists(st.integers(-2, 2), min_size=p * p, max_size=p * p))
        patch = Mat.from_rows(
            [[ent[i * p + j] for j in range(p)] for i in range(p)]
        )
    return BandedOperator.build(diags, patch=patch)


# -- catalog ----------------------------------------------------------------


def test_adjoint_shift_entries(backward_shift):
    for i in range(4):
        assert backward_shift.entry(i, i + 1) == GR_ONE
        assert backward_shift.entry(i, i).is_zero()
        assert backward_shift.entry(i + 1, i).is_zero()


def test_toeplitz_z_is_forward_shift(forward_shift):
    T = make_catalog_operator("toeplitz", symbol={1: 1})
    assert T.diagonals == forward_shift.diagonals


def test_decaying_diagonal_is_compact_candidate():
    D = make_catalog_operator("diagonal", values=[Fraction(1, k + 1) for k in range(12)])
    assert D.entry(3, 3) == GaussianRational(Fraction(1, 4))
    assert D.entry(20, 20).is_zero()
    with pytest.raises(PreconditionError):
        fredholm_index_banded(D)


def test_unknown_kind_rejected():
    with pytest.raises(FormatError):
        make_catalog_operator("hankel")
    with pytest.raises(FormatError):
        make_catalog_operator("toeplitz", symbol={})


_ONE = [["1", "0"]]

#: (call, message) of each operator check that no file table fires
_ELL2_REFUSALS = {
    "empty-period": (
        lambda: operator_from_json({"diagonals": [{"offset": 1, "prefix": _ONE, "period": []}]}),
        "diagonal tail rule needs a period of length >= 1",
    ),
    "duplicate-offset": (
        lambda: operator_from_json({"diagonals": [{"offset": 1, "period": _ONE}] * 2}),
        "duplicate diagonal offset 1",
    ),
    "float-patch": (lambda: BandedOperator.build([], patch=Mat.identity(2, "float")), "patch entries must be exact"),
    "non-square-patch": (
        lambda: operator_from_json({"diagonals": [], "patch": {"rows": 1, "cols": 2, "entries": _ONE * 2}}),
        "patch must be square",
    ),
    "weighted-shift-no-period": (
        lambda: make_catalog_operator("weighted_shift", prefix=[1]),
        "weighted_shift needs a nonempty period",
    ),
}


@pytest.mark.parametrize("call, message", _ELL2_REFUSALS.values(), ids=_ELL2_REFUSALS)
def test_ell2_refuses_malformed_operators(call, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        call()


# -- algebra ----------------------------------------------------------------


def test_adjoint_involution(backward_shift):
    assert backward_shift.adjoint().adjoint() == backward_shift


def test_shift_relations(forward_shift, backward_shift):
    assert backward_shift * forward_shift == identity_op().scale(1) or (
        (backward_shift * forward_shift).diagonals == identity_op().diagonals
    )
    SSt = forward_shift * backward_shift
    # I minus the projection onto the first coordinate
    assert SSt.entry(0, 0).is_zero()
    for k in range(1, 6):
        assert SSt.entry(k, k) == GR_ONE
    sec = SSt.section(8, 8)
    expect = np.eye(8)
    expect[0, 0] = 0.0
    assert np.allclose(sec, expect)


def test_adjoint_is_conjugate_transpose_on_sections(backward_shift):
    K = backward_shift + identity_op().scale(GaussianRational(1, 2))
    A = K.section(10, 10)
    B = K.adjoint().section(10, 10)
    assert np.allclose(B, A.conj().T)


@settings(max_examples=30, deadline=None)
@given(banded_ops(), banded_ops())
def test_product_sections_match_matrix_product(a, b):
    n = 8
    wa, wb = a.bandwidth, b.bandwidth
    k = max(n + wa, n + wb) + wa + wb + 1
    left = a.section(n, k) @ b.section(k, n)
    prod = (a * b).section(n, n)
    assert np.allclose(prod, left, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(banded_ops(), banded_ops())
def test_sum_sections_match(a, b):
    s = (a + b).section(9, 9)
    assert np.allclose(s, a.section(9, 9) + b.section(9, 9), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(banded_ops())
def test_adjoint_involution_property(a):
    assert a.adjoint().adjoint() == a


_rationals = st.one_of(st.just(0), st.fractions(-2, 2, max_denominator=4))
_gaussian_rationals = st.builds(GaussianRational, _rationals, _rationals)


@st.composite
def exact_banded_ops(draw):
    diags = [
        Diagonal(
            o,
            tuple(draw(st.lists(_gaussian_rationals, max_size=3))),
            tuple(draw(st.lists(_gaussian_rationals, min_size=1, max_size=3))),
        )
        for o in sorted(draw(st.sets(st.integers(-3, 3), max_size=4)))
    ]
    return BandedOperator.build(diags)


@settings(max_examples=40, deadline=None)
@given(exact_banded_ops(), exact_banded_ops())
def test_product_is_the_exact_entrywise_product(a, b):
    wa, wb = a.bandwidth, b.bandwidth
    (la, pa), (lb, pb) = a._tail_params(), b._tail_params()
    L, P = max(la, lb) + wa + wb, lcm(pa, pb)

    def ref(i, j):
        terms = (a.entry(i, k) * b.entry(k, j) for k in range(max(0, i - wa), i + wa + 1))
        return sum(terms, GR_ZERO)

    prod = a * b
    n = L + P + wa + wb
    assert all(prod.entry(i, j) == ref(i, j) for i in range(n) for j in range(n))
    diags = []
    for o in range(-wa - wb, wa + wb + 1):
        vals = [ref(t + max(-o, 0), t + max(o, 0)) for t in range(L + P)]
        diags.append(Diagonal(o, tuple(vals[:L]), tuple(vals[L:])))
    assert prod == BandedOperator.build(diags)


@settings(max_examples=40, deadline=None)
@given(exact_banded_ops(), exact_banded_ops())
def test_sum_is_the_exact_entrywise_sum(a, b):
    (la, pa), (lb, pb) = a._tail_params(), b._tail_params()
    L, P = max(la, lb), lcm(pa, pb)
    w = max(a.bandwidth, b.bandwidth)
    diags = []
    for o in range(-w, w + 1):
        at = [(t + max(-o, 0), t + max(o, 0)) for t in range(L + P)]
        vals = [a.entry(i, j) + b.entry(i, j) for i, j in at]
        diags.append(Diagonal(o, tuple(vals[:L]), tuple(vals[L:])))
    assert a + b == BandedOperator.build(diags)


@settings(max_examples=40, deadline=None)
@given(exact_banded_ops(), st.integers(1, 3), st.data())
def test_patch_adds_into_the_top_left_entries(a, n, data):
    ents = data.draw(st.lists(_gaussian_rationals, min_size=n * n, max_size=n * n))
    patch = Mat.from_rows([ents[i * n : (i + 1) * n] for i in range(n)])
    patched = BandedOperator.build(a.diagonals, patch=patch)
    L, P = a._tail_params()
    size = L + P + n + max(a.bandwidth, n - 1) + 1
    for i in range(size):
        for j in range(size):
            corner = patch.at(i, j) if i < n and j < n else GR_ZERO
            assert patched.entry(i, j) == a.entry(i, j) + corner


def test_powers_start_from_the_operator(monkeypatch, backward_shift):
    products = []
    real_mul = BandedOperator.__mul__
    monkeypatch.setattr(
        BandedOperator, "__mul__", lambda a, b: products.append(1) or real_mul(a, b)
    )
    fredholm_index_banded(backward_shift)
    kernel_tower(backward_shift, 6)
    assert not products  # the walk goes through T's own section
    assert backward_shift.power(0) == identity_op()
    assert backward_shift.power(1) == backward_shift and not products
    backward_shift.power(3)
    assert len(products) == 2


def test_poly_matches_repeated_products(backward_shift):
    p = backward_shift.poly([0, 2, 0, 1])  # 2T + T^3
    direct = backward_shift.scale(2) + backward_shift.power(3)
    assert p == direct


def test_tail_normalization_canonicalizes():
    d1 = BandedOperator.build([Diagonal(0, (GR_ONE,), (GR_ONE,))])
    d2 = BandedOperator.build([Diagonal(0, (), (GR_ONE, GR_ONE))])
    assert d1 == d2 == identity_op().scale(1)


def test_real_operator_has_a_real_section(backward_shift):
    T = backward_shift + identity_op().scale(Fraction(1, 3))
    expect = np.array([[T.entry(i, j).to_complex() for j in range(8)] for i in range(9)])
    sec = T.section(9, 8)
    assert sec.dtype == np.float64 and np.array_equal(sec, expect)
    imaginary = BandedOperator.build([Diagonal(0, (GaussianRational(0, 1),), (GR_ZERO,))])
    assert (T + imaginary).section(9, 8).dtype == np.complex128


def _tower_report(T, depth, tmp_path):
    """The kernel tower of T and the bytes of ``koszulkit tower`` on it."""
    from koszulkit.cli import main
    from writers import operator_to_json

    inp, out = tmp_path / "op.json", tmp_path / "tower.json"
    inp.write_text(json.dumps(operator_to_json(T)))
    assert main(["tower", "--input", str(inp), "--max-level", str(depth), "--out", str(out)]) == 0
    return kernel_tower(T, depth), out.read_bytes()


@pytest.mark.parametrize(
    "T",
    [
        make_catalog_operator("adjoint_shift"),
        make_catalog_operator("adjoint_shift") + identity_op().scale(Fraction(1, 3)),
        make_catalog_operator("weighted_shift", period=[1, 2]).adjoint(),
    ],
    ids=["S*", "S*+I/3", "weighted-period-2"],
)
def test_real_sections_certify_as_complex_ones(monkeypatch, tmp_path, T):
    real_idx = fredholm_index_banded(T)
    real_tw, real_report = _tower_report(T, 12, tmp_path)
    real_section = BandedOperator.section
    monkeypatch.setattr(
        BandedOperator, "section", lambda op, r, c: real_section(op, r, c).astype(complex)
    )
    idx = fredholm_index_banded(T)
    tw, report = _tower_report(T, 12, tmp_path)
    assert (idx.dim_ker, idx.dim_coker) == (real_idx.dim_ker, real_idx.dim_coker)
    assert tw.kernel_dims == real_tw.kernel_dims and len(tw.kernel_dims) == 12
    for lv, real_lv in zip(tw.levels, real_tw.levels):
        assert np.abs(lv.h_basis - real_lv.h_basis).max() <= 1e-10
    assert report == real_report


# -- certified kernels --------------------------------------------------------


def test_backward_shift_kernel_power(backward_shift):
    sub = KernelWalk(backward_shift).kernel(5)
    assert sub.dim == 5
    P = sub.basis @ sub.basis.conj().T
    assert np.allclose(P[:5, :5], np.eye(5), atol=1e-9)
    assert float(np.abs(sub.basis[5:, :]).max()) <= 1e-9


def test_forward_shift_is_injective(forward_shift):
    for m in (1, 3, 5):
        assert KernelWalk(forward_shift).kernel(m).dim == 0


def test_toeplitz_square_adjoint_kernel():
    T = make_catalog_operator("toeplitz", symbol={2: 1})
    assert KernelWalk(T.adjoint()).kernel(1).dim == 2


def test_kernel_dims_nondecreasing_with_stable_growth(backward_shift):
    T2 = make_catalog_operator("toeplitz", symbol={2: 1}).adjoint()
    for T, step in ((backward_shift, 1), (T2, 2)):
        dims = [KernelWalk(T).kernel(m).dim for m in range(1, 9)]
        assert all(b >= a for a, b in zip(dims, dims[1:]))
        diffs = [b - a for a, b in zip(dims, dims[1:])]
        assert all(d == step for d in diffs[2:])


def test_certified_subspace_reverifies_at_double_window(backward_shift):
    from koszulkit.ell2 import StabilizedSubspace, TruncationWindow, _chain_kernel

    sub = KernelWalk(backward_shift).kernel(4)
    T4, N, G = backward_shift.power(4), 2 * sub.window.N, sub.window.G
    # the chain step from {0} at the doubled window, with no bound
    zero = StabilizedSubspace(np.zeros((N - G, 0)), 0, TruncationWindow(N, G))
    again = _chain_kernel(T4, zero, None, KernelWalk(T4))
    assert again.dim == sub.dim


def test_one_walk_in_caller_order_matches_a_new_walk_per_power(backward_shift):
    walk = KernelWalk(backward_shift)
    for m in [3, 1, 3, 2]:
        sub, one = walk.kernel(m), KernelWalk(backward_shift).kernel(m)
        assert sub.dim == one.dim == m
        assert np.array_equal(sub.basis, one.basis)


def test_power_zero_has_the_zero_kernel_and_a_negative_power_is_refused(backward_shift):
    from koszulkit.ell2 import TruncationWindow

    sub = KernelWalk(backward_shift).kernel(0)
    assert (sub.dim, sub.basis.shape, sub.window) == (0, (48, 0), TruncationWindow(64, 16))
    walk = KernelWalk(backward_shift)
    assert [(m, walk.kernel(m).dim) for m in [2, 0, 2]] == [(2, 2), (0, 0), (2, 2)]
    with pytest.raises(FormatError, match="m >= 0"):
        KernelWalk(backward_shift).kernel(-1)


#: operators of positive index with coker 0, so dim ker T^m = m * dim ker T
#: and every power m >= 2 of the walk reaches its bound
_BOUND_OPERATORS = {
    "S*": lambda: make_catalog_operator("adjoint_shift"),
    "S*^2 + I/4": lambda: make_catalog_operator("toeplitz", symbol={-2: 1, 0: "1/4"}),
    "S* - I/2": lambda: make_catalog_operator("toeplitz", symbol={-1: 1, 0: "-1/2"}),
    "weighted S*": lambda: make_catalog_operator(
        "weighted_shift", prefix=["1/2"], period=[2, 1]
    ).adjoint(),
}


def _count_chain_windows(monkeypatch):
    """Record the window of every factorization and, per dim ker T^(m-1),
    every window at which the chain sought ker T^m, by a full or a layer
    step."""
    import koszulkit.ell2 as ell2

    real_factor, real_step = ell2._factor_section, ell2._preimage_kernel
    factored, sought = [], {}

    def factor(T, N):
        factored.append(N)
        return real_factor(T, N)

    def step(fact, K, G, layer=0):
        sought.setdefault(K.shape[1], []).append(fact[3].shape[0])
        return real_step(fact, K, G, layer)

    monkeypatch.setattr(ell2, "_factor_section", factor)
    monkeypatch.setattr(ell2, "_preimage_kernel", step)
    return factored, sought


def _sin_largest_angle(P, Q):
    """Sine of the largest principal angle between the column spans of
    orthonormal P and Q, padded with zeros to one length."""
    L = max(P.shape[0], Q.shape[0])
    P, Q = (np.vstack([B, np.zeros((L - B.shape[0], B.shape[1]))]) for B in (P, Q))
    return float(np.linalg.norm(Q - P @ (P.conj().T @ Q), 2))


@pytest.mark.parametrize("name", sorted(_BOUND_OPERATORS))
def test_kernels_accepted_by_the_bound_hold_at_the_doubled_window(monkeypatch, name):
    T = _BOUND_OPERATORS[name]()
    _, sought = _count_chain_windows(monkeypatch)
    walk = KernelWalk(T)
    kernels = {m: walk.kernel(m) for m in range(1, 9)}
    monkeypatch.undo()
    d1 = kernels[1].dim
    for m in range(2, 9):
        sub = kernels[m]
        assert sub.dim == m * d1
        # accepted by the bound: the chain never sought it at the doubled window ...
        assert 2 * sub.window.N not in sought[(m - 1) * d1]
        # ... where the section of the power T^m spans the same kernel
        G = max(16, m * T.bandwidth)
        basis = oracle_section_kernel(T.power(m), 2 * sub.window.N, G)
        assert basis.shape[1] == sub.dim
        assert _sin_largest_angle(basis, sub.basis) <= 1e-8
        alone = KernelWalk(T).kernel(m)
        assert (alone.dim, alone.window) == (sub.dim, sub.window)
        assert np.array_equal(alone.basis, sub.basis)


def test_a_ker_t_count_above_the_callers_bound_is_not_stabilized(backward_shift):
    # ker S* is spanned by e0, so a winding of 0, whose Coburn bound on
    # dim ker T is 0, is wrong: the count is refused, not confirmed at 2N
    with pytest.raises(NotStabilized) as exc:
        KernelWalk(backward_shift, wind=0).kernel(1)
    assert str(exc.value) == (
        "section size 64 certifies 1 kernel vectors, above the bound 0 on their "
        "number: the bound, or a count it rests on, is wrong"
    )
    # a bound the count reaches accepts it; a larger one leaves it to the 2N check
    assert KernelWalk(backward_shift, wind=-1).kernel(1).dim == 1
    assert KernelWalk(backward_shift, wind=-2).kernel(1).dim == 1


def test_a_count_above_the_bound_is_not_stabilized(backward_shift):
    # given ker S* as ker T of T = (S*)^2, the chain finds e0, e1 and the
    # preimage e2 of e0: one more than the bound 1 + 1 claims
    walk = KernelWalk(backward_shift.power(2))
    walk.kernels.append(KernelWalk(backward_shift).kernel(1))
    with pytest.raises(NotStabilized, match="above the bound 2 "):
        walk.kernel(2)


def test_a_previous_basis_that_t_does_not_map_into_its_span_is_not_stabilized(backward_shift):
    # e40 handed to S* as ker T: S* e40 = e39 leaves its span, so the
    # preimages of that span, e0 and e41, miss e40 at sine 1
    from koszulkit.ell2 import StabilizedSubspace, TruncationWindow

    e40 = np.zeros((48, 1))
    e40[40] = 1.0
    walk = KernelWalk(backward_shift)
    walk.kernels.append(StabilizedSubspace(e40, 1, TruncationWindow(64, 16)))
    with pytest.raises(NotStabilized, match=r"up to sine 1\.000e\+00 "):
        walk.kernel(2)


def test_a_count_that_never_settles_up_to_the_largest_section_is_not_stabilized(
    monkeypatch, backward_shift
):
    # no operator does this: the section reads are stubbed and the step
    # counts one vector per 32 columns of its window, so N and 2N never
    # agree and the window doubles past MAX_SECTION
    import koszulkit.ell2 as ell2

    def factor(T, N):
        return (None,) * 3 + (np.zeros((N, 0)),) + (None,) * 2 + (np.zeros((N, 0)),)

    monkeypatch.setattr(ell2, "_section_nullity", lambda T, N: 1)
    monkeypatch.setattr(ell2, "_factor_section", factor)
    monkeypatch.setattr(ell2, "_preimage_kernel", lambda fact, K, G, layer=0: (fact[3].shape[0] // 32, None))
    with pytest.raises(NotStabilized) as exc:
        KernelWalk(backward_shift).kernel(1)
    assert str(exc.value) == "kernel dimension kept changing up to section size 1024 (last dims 32 vs 64)"


#: walks whose bases must nest: scalar and complex 2-dim layers, slow
#: decay and a layer dimension that drops from 2 to 1
_NESTED_OPERATORS = {
    "S*^2": lambda: make_catalog_operator("adjoint_shift").power(2),
    "S*^2 + iI/4": lambda: make_catalog_operator(
        "toeplitz", symbol={-2: 1, 0: GaussianRational(0, Fraction(1, 4))}
    ),
    "S* - I/2": _BOUND_OPERATORS["S* - I/2"],
    "weighted S*, weights 0, 2, 1, ...": lambda: make_catalog_operator(
        "weighted_shift", prefix=[0, 2], period=[1]
    ).adjoint(),
}


def test_phases_are_fixed_as_the_column_loop_fixes_them():
    import koszulkit.ell2 as ell2

    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    B[:, 1] = 0  # a zero column stays
    B[:, 2] = [0, 1j, -1j, 0, 0, 0]  # on a tie the first largest entry wins
    refs = []
    for M in (B, B.real):
        ref = M.copy()
        for j in range(M.shape[1]):
            v = M[int(np.argmax(np.abs(M[:, j]))), j]
            if abs(v) > 0:
                ref[:, j] = M[:, j] * (abs(v) / v)
        refs.append(ref)
    # a real column only changes sign; a complex phase is divided out by a
    # ufunc instead of on numpy scalars, so within 4 eps of each entry
    assert np.array_equal(ell2._fix_phases(B.real), refs[1])
    assert (np.abs(ell2._fix_phases(B) - refs[0]) <= 4 * np.finfo(float).eps * np.abs(B)).all()
    assert np.array_equal(ell2._fix_phases(B)[:, 2], [0, 1, -1, 0, 0, 0])


def _qr_orthonormalized(B):
    """The Q factor of B with R's diagonal made real positive, a zero
    diagonal entry taken as 1: the QR reference for ``_orthonormalize``."""
    q, r = np.linalg.qr(B)
    d = r.diagonal().copy()
    d[d == 0] = 1.0
    return q * (d.conj() / np.abs(d))


_rng_column = np.random.default_rng(5).standard_normal((2, 64))
_single = np.zeros(64)
_single[5] = -3.0


@pytest.mark.parametrize(
    "column, by_qr",
    [
        (_rng_column[0], False),
        (_rng_column[0] + 1j * _rng_column[1], False),
        (_single, False),
        (np.zeros(64), True),
        (1e-300 * _rng_column[0], True),
        (1e300 * _rng_column[0], True),
        (1e-300 * (_rng_column[0] + 1j * _rng_column[1]), True),
    ],
    ids=["real", "complex", "one-nonzero", "zero", "1e-300", "1e300", "complex-1e-300"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_one_column_is_orthonormalized_as_the_qr_does(monkeypatch, column, by_qr):
    # a column divided by its unscaled norm is the QR's column to a few
    # ulps; where that norm is 0 or squaring under- or overflows, the QR
    # itself runs (a zero column gives e1, as the QR does)
    import koszulkit.ell2 as ell2

    B, ref, qrs = column[:, None], _qr_orthonormalized(column[:, None]), []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args: qrs.append(a.shape) or real_qr(a, *args))
    got = ell2._orthonormalize(B)
    assert got.dtype == ref.dtype and len(qrs) == by_qr
    assert abs(np.linalg.norm(got) - 1) <= 1e-15
    assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps
    if by_qr:
        assert np.array_equal(got, ref)


def _count_step_svds(monkeypatch):
    """Per chain step, full or layer, the ``full_matrices`` flag of each
    np.linalg.svd call that ``_preimage_kernel`` makes itself; only the SVD
    of the projection of K off ran B asks for thin factors (False)."""
    import koszulkit.ell2 as ell2

    real_svd, real_step = np.linalg.svd, ell2._preimage_kernel
    steps = []

    def svd(a, *args, **kwargs):
        if sys._getframe(1).f_code is real_step.__code__:
            steps[-1].append(kwargs.get("full_matrices", True))
        return real_svd(a, *args, **kwargs)

    def step(fact, K, G, layer=0):
        steps.append([])
        return real_step(fact, K, G, layer)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(ell2, "_preimage_kernel", step)
    return steps


def test_no_step_of_the_s_star_tower_factors_a_block_below_its_tolerance(
    monkeypatch, backward_shift
):
    # ker (S*)^(m-1) = span(e0, ..., e(m-2)) lies in ran B, and every new
    # direction e(m-1) vanishes on the guard band: the step to ker T takes
    # null(B) as it is, with nothing to split off, and each step past it, a
    # layer step after a kernel at its bound, factors nothing
    steps = _count_step_svds(monkeypatch)
    tw = kernel_tower(backward_shift, 12)
    assert tw.kernel_dims == tuple(range(1, 13))
    assert len(steps) == 12
    assert steps == [[]] * 12


def test_each_step_of_the_s_star_tower_from_a_nonzero_kernel_orthonormalizes_once(
    monkeypatch, backward_shift
):
    # the candidate basis [V_0 | V_r Q] is orthonormal as built, so the new
    # directions need no second orthonormalization; the step to ker T has
    # no preimages.  Every layer is one-wide, so no step calls the QR
    import koszulkit.ell2 as ell2

    real_orth, real_step = ell2._orthonormalize, ell2._preimage_kernel
    steps, qrs = [], []

    def step(fact, K, G, layer=0):
        steps.append([])
        return real_step(fact, K, G, layer)

    monkeypatch.setattr(ell2, "_preimage_kernel", step)
    monkeypatch.setattr(ell2, "_orthonormalize", lambda B: steps[-1].append(B.shape) or real_orth(B))
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args: qrs.append(a.shape))
    tw = kernel_tower(backward_shift, 12)
    assert tw.kernel_dims == tuple(range(1, 13))
    assert [len(s) for s in steps] == [0] + [1] * 11
    assert all(shape[1] == 1 for s in steps for shape in s)
    assert qrs == []


def test_layer_bases_stay_orthonormal_when_the_kept_singular_values_spread_widely():
    # the square of the adjoint of the weighted shift with weights 1e-4,
    # 1e-2, then 1, 8, 1, 8, ...: the section's kept singular values run
    # from 1e-6 to 8, so S_r^-1 scales the preimages over seven decades
    import koszulkit.ell2 as ell2

    W = make_catalog_operator("weighted_shift", prefix=["1/10000", "1/100"], period=[1, 8])
    T = W.adjoint().power(2)
    walk = KernelWalk(T)
    for m in range(1, 9):
        s = ell2._factor_section(T, walk.kernel(m).window.N)[2]
        assert s.max() / s.min() >= 1e6
    tw = kernel_tower(T, 8)
    assert tw.kernel_dims == tuple(range(2, 17, 2))
    for lv in tw.levels:
        H = lv.h_basis
        assert np.abs(H.conj().T @ H - np.eye(H.shape[1])).max() <= 1e-13
    nested = walk.kernel(8).basis
    assert np.abs(nested.conj().T @ nested - np.eye(16)).max() <= 1e-13


def test_a_kernel_outside_the_sections_range_still_takes_the_projection_svd(monkeypatch):
    # the weight 0 puts e0 in ker T but outside ran B, so every step past
    # ker T factors the projection of K off ran B; the kernels still match
    # the entrywise oracle's
    T = _NESTED_OPERATORS["weighted S*, weights 0, 2, 1, ..."]()
    steps = _count_step_svds(monkeypatch)
    walk = KernelWalk(T)
    kernels = {m: walk.kernel(m) for m in range(1, 7)}
    monkeypatch.undo()
    assert [sub.dim for sub in kernels.values()] == [2, 3, 4, 5, 6, 7]
    assert all(False in calls for calls in steps[1:])
    for m, sub in kernels.items():
        basis = oracle_section_kernel(T.power(m), sub.window.N, sub.window.G)
        assert basis.shape[1] == sub.dim
        assert _sin_largest_angle(basis, sub.basis) <= 1e-8


def _record_layers(monkeypatch):
    """The ``layer`` argument of every chain step: 0 for a full step, the
    width of K's newest layer for a layer step."""
    import koszulkit.ell2 as ell2

    real, layers = ell2._preimage_kernel, []

    def step(fact, K, G, layer=0):
        layers.append(layer)
        return real(fact, K, G, layer)

    monkeypatch.setattr(ell2, "_preimage_kernel", step)
    return layers


#: the walks of these must be the same with and without layer steps
_LAYER_OPERATORS = {**_BOUND_OPERATORS, **_NESTED_OPERATORS}


@pytest.mark.parametrize("bounded", [False, True], ids=["plain walk", "index walk"])
@pytest.mark.parametrize("name", sorted(_LAYER_OPERATORS))
def test_layer_steps_find_the_kernels_the_full_step_finds(monkeypatch, name, bounded):
    # the full step is forced by a monkeypatched ``_preimage_kernel`` that
    # drops its layer argument; the index walk carries Coburn's bound on
    # ker T for a scalar Toeplitz T, the plain walk none
    import koszulkit.ell2 as ell2

    T = _LAYER_OPERATORS[name]()
    walk_of = (lambda: KernelWalk(T, symbol_winding(T))) if bounded else (lambda: KernelWalk(T))
    layers = _record_layers(monkeypatch)
    walk = walk_of()
    layered = {m: walk.kernel(m) for m in range(1, 9)}
    monkeypatch.undo()
    real = ell2._preimage_kernel
    monkeypatch.setattr(ell2, "_preimage_kernel", lambda fact, K, G, layer=0: real(fact, K, G))
    full = walk_of()
    for m, sub in layered.items():
        ref = full.kernel(m)
        assert (sub.dim, sub.window, sub.at_bound) == (ref.dim, ref.window, ref.at_bound)
        assert _sin_largest_angle(sub.basis, ref.basis) <= 1e-12
    # only the weighted S* with weights 0, 2, 1, ... never reaches a bound
    assert any(layers) == (name != "weighted S*, weights 0, 2, 1, ...")


def test_a_hand_built_kernel_at_its_bound_still_takes_the_full_step(monkeypatch, backward_shift):
    # ker S* reaches Coburn's bound 1; handed on as a kernel built by hand,
    # without that record, its successor takes the full step
    from koszulkit.ell2 import StabilizedSubspace

    ker = KernelWalk(backward_shift, wind=-1).kernel(1)
    assert ker.at_bound
    layers = _record_layers(monkeypatch)
    walk = KernelWalk(backward_shift, wind=-1)
    walk.kernels.append(StabilizedSubspace(ker.basis, ker.dim, ker.window))
    assert walk.kernel(2).dim == 2 and walk.kernel(3).dim == 3
    assert layers == [0, 1]


def _with_section_entry(monkeypatch, i, j, value):
    """Monkeypatch ``_factor_section`` so that every section B it returns
    has ``value`` added at (i, j) while its SVD factors stay T's own: of a
    chain step's checks only the residual test multiplies by B itself."""
    import koszulkit.ell2 as ell2

    real = ell2._factor_section

    def factor(T, N):
        B, *rest = real(T, N)
        B = B.copy()
        B[i, j] += value
        return (B, *rest)

    monkeypatch.setattr(ell2, "_factor_section", factor)


@pytest.mark.parametrize("wind, layer", [(None, 0), (-1, 1)], ids=["full-step", "layer-step"])
def test_a_preimage_the_section_maps_off_span_k_fails_the_residual_test(
    monkeypatch, backward_shift, wind, layer
):
    # a monkeypatched section of S* with B e1 = e0 + 1e-6 e5: the preimage
    # e1 of ker T = span e0 leaves span e0 under B, so the step at N = 64
    # finds ker T alone, and so does the full step at 128 that confirms it;
    # with Coburn's bound 1 on ker T the step at 64 is a layer step
    _with_section_entry(monkeypatch, 5, 1, 1e-6)
    layers = _record_layers(monkeypatch)
    walk = KernelWalk(backward_shift, wind)
    assert walk.kernel(1).dim == 1
    sub = walk.kernel(2)
    assert (sub.dim, sub.window.N, sub.at_bound) == (1, 64, False)
    assert layers == [0, layer, 0]


@pytest.mark.parametrize("name", sorted(_NESTED_OPERATORS))
def test_each_power_keeps_the_basis_of_the_one_before_as_its_first_columns(name):
    T = _NESTED_OPERATORS[name]()
    kernels = {m: KernelWalk(T).kernel(m) for m in range(1, 9)}
    for m in range(2, 9):
        prev, head = kernels[m - 1], kernels[m].basis[:, : kernels[m - 1].dim]
        rows = prev.basis.shape[0]
        assert np.array_equal(head[:rows], prev.basis)
        assert not head[rows:].any()


#: towers whose kernels decay fast enough for the entrywise oracle's window
_FAST_TOWERS = {
    "S*^2": _NESTED_OPERATORS["S*^2"],
    "S*^3": lambda: make_catalog_operator("adjoint_shift").power(3),
    "S*^2 + iI/4": _NESTED_OPERATORS["S*^2 + iI/4"],
    "weighted S*, weights 0, 2, 1, ...": _NESTED_OPERATORS["weighted S*, weights 0, 2, 1, ..."],
}


@pytest.mark.parametrize("name", sorted(_FAST_TOWERS))
def test_tower_layers_match_the_entrywise_section_oracle(name):
    # H_n lies in the oracle's ker T^n and is orthogonal to its ker T^(n-1),
    # both read at the window where H_n's support ends at the guard band
    T = _FAST_TOWERS[name]()
    for lv in kernel_tower(T, 8).levels:
        L, G = lv.h_basis.shape[0], max(16, lv.n * T.bandwidth)
        ker = oracle_section_kernel(T.power(lv.n), L + G, G)
        assert _sin_largest_angle(ker, lv.h_basis) <= 1e-8
        low = oracle_section_kernel(T.power(lv.n - 1), L + G, G)
        complement = np.linalg.svd(low)[0][:, low.shape[1] :]
        assert _sin_largest_angle(complement, lv.h_basis) <= 1e-8

#: ker T and ker T* of these are certified at m = 1, with no bound
_M1_OPERATORS = {
    **_BOUND_OPERATORS,
    "S": lambda: make_catalog_operator("shift"),
    "patched S*": lambda: make_catalog_operator("adjoint_shift")
    + BandedOperator.build([], patch=Mat.from_rows([[2, 1], [0, -1]])),
    "S* - 9I/10": lambda: make_catalog_operator("toeplitz", symbol={-1: 1, 0: "-9/10"}),
}


FACTOR, NULLITY = "_factor_section", "_section_nullity"


def _count_reads(monkeypatch):
    """Record (helper, operator, N) for every section read: a full SVD
    (``_factor_section``) or a values-only one (``_section_nullity``)."""
    import koszulkit.ell2 as ell2

    reads = []
    for name in (FACTOR, NULLITY):

        def counted(T, N, real=getattr(ell2, name), name=name):
            reads.append((name, T, N))
            return real(T, N)

        monkeypatch.setattr(ell2, name, counted)
    return reads


def _factored(reads):
    return [N for helper, _, N in reads if helper == FACTOR]


@pytest.mark.parametrize("name", sorted(_M1_OPERATORS))
def test_singular_values_confirm_the_doubled_window_as_its_section_does(monkeypatch, name):
    import koszulkit.ell2 as ell2

    T = _M1_OPERATORS[name]()
    for op in (T, T.adjoint()):
        reads = _count_reads(monkeypatch)
        fast = KernelWalk(op).kernel(1)
        assert 2 * fast.window.N not in _factored(reads)  # confirmed by singular values
        # a values-only count that never agrees forces the full 2N section
        monkeypatch.setattr(ell2, "_section_nullity", lambda Tm, N: -1)
        reads.clear()
        full = KernelWalk(op).kernel(1)
        assert 2 * full.window.N in _factored(reads)
        assert (fast.dim, fast.window) == (full.dim, full.window)
        assert np.array_equal(fast.basis, full.basis)
        monkeypatch.undo()


@pytest.mark.parametrize("name", sorted(_M1_OPERATORS))
def test_kernels_match_the_entrywise_section_oracle_at_their_window(name):
    T = _M1_OPERATORS[name]()
    for op in (T, T.adjoint()):
        sub = KernelWalk(op).kernel(1)
        basis = oracle_section_kernel(op, sub.window.N, sub.window.G)
        assert basis.shape[1] == sub.dim
        if sub.dim:
            assert _sin_largest_angle(basis, sub.basis) <= 1e-8


def test_index_of_a_toeplitz_operator_takes_no_doubled_section(monkeypatch, tmp_path):
    from koszulkit.cli import main

    reads = _count_reads(monkeypatch)
    inp = tmp_path / "t.json"
    inp.write_text(json.dumps({"diagonals": [
        {"offset": 1, "period": [["1", "0"]]},
        {"offset": 0, "period": [["1/3", "0"]]},
    ]}))
    assert main(["index", "--input", str(inp), "--out", str(tmp_path / "o.json")]) == 0
    assert json.loads((tmp_path / "o.json").read_text())["index"] == 1
    # ker T, bounded by 1, is factored; ker T*, bounded by 0, is settled by
    # its singular values; none at N = 128, as both counts equal Coburn's
    assert [(helper, N) for helper, _, N in reads] == [(FACTOR, 64), (NULLITY, 64)]


def _root_symbol(c, p, roots):
    """Coefficients {k: c_k} of the symbol c z^(-p) prod_r (z - r)."""
    poly = [c]  # ascending powers of z
    for r in roots:
        poly = [lo - r * hi for hi, lo in zip(poly + [GR_ZERO], [GR_ZERO] + poly)]
    return {k - p: v for k, v in enumerate(poly)}


def _index_and_oracles(T):
    """``fredholm_index_banded(T)``, its section reads (``_count_reads``),
    and the kernels of T and T* from a new ``KernelWalk`` each."""
    with pytest.MonkeyPatch.context() as mp:
        reads = _count_reads(mp)
        idx = fredholm_index_banded(T)
    return idx, reads, KernelWalk(T).kernel(1), KernelWalk(T.adjoint()).kernel(1)


def _assert_one_read_per_side(idx, reads):
    """Each side of a Toeplitz index at Coburn's dimension reads one
    section, at its accepted window: only its singular values when the
    bound is 0, else its full factorization."""
    sides = (idx.ker, idx.coker)
    assert [(helper, N) for helper, _, N in reads] == [
        (NULLITY if sub.dim == 0 else FACTOR, sub.window.N) for sub in sides
    ]


def _assert_same_kernel(sub, alone):
    assert (sub.dim, sub.window) == (alone.dim, alone.window)
    assert np.array_equal(sub.basis, alone.basis)


#: scalar Toeplitz operators, whose kernel dimensions the symbol fixes
_TOEPLITZ_OPERATORS = {
    "I": identity_op,
    "S*": lambda: make_catalog_operator("adjoint_shift"),
    "S^2": lambda: make_catalog_operator("toeplitz", symbol={2: 1}),
    "S* - I/2": _BOUND_OPERATORS["S* - I/2"],
    "S*^2 + I/4": _BOUND_OPERATORS["S*^2 + I/4"],
    # (1 + i/2) z^(-1) prod (z - r), roots drawn once: two inside the
    # circle and two outside, so wind = 2 - 1
    "complex bandwidth 3": lambda: make_catalog_operator(
        "toeplitz",
        symbol=_root_symbol(
            GaussianRational(1, Fraction(1, 2)),
            1,
            [
                GaussianRational(Fraction(1, 4), Fraction(1, 8)),
                GaussianRational(Fraction(-1, 5), Fraction(1, 5)),
                GaussianRational(3, -2),
                GaussianRational(0, -4),
            ],
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_TOEPLITZ_OPERATORS))
def test_toeplitz_kernels_at_coburns_dimension_take_no_doubled_window(name):
    T = _TOEPLITZ_OPERATORS[name]()
    assert T._tail_params() == (0, 1)
    idx, reads, ker, coker = _index_and_oracles(T)
    _assert_one_read_per_side(idx, reads)
    assert idx.index == -symbol_winding(T)
    _assert_same_kernel(idx.ker, ker)
    _assert_same_kernel(idx.coker, coker)


def test_a_toeplitz_count_below_coburns_dimension_takes_the_doubled_window(monkeypatch):
    # S* - 3I/4: ker T counts 0 at N = 64, below the bound 1; the 2N read
    # sends it to N = 128, where it counts 1 and is accepted with no 256 read
    T = make_catalog_operator("toeplitz", symbol={-1: 1, 0: "-3/4"})
    reads = _count_reads(monkeypatch)
    idx = fredholm_index_banded(T)
    # the 128 section is read twice, values first (left for the recurrence);
    # ker T*, bounded by 0, takes its singular values alone
    assert reads == [
        (FACTOR, T, 64), (NULLITY, T, 128), (FACTOR, T, 128), (NULLITY, T.adjoint(), 64)
    ]
    assert (idx.ker.window.N, idx.dim_ker) == (128, 1)
    monkeypatch.undo()
    _assert_same_kernel(idx.ker, KernelWalk(T).kernel(1))
    _assert_same_kernel(idx.coker, KernelWalk(T.adjoint()).kernel(1))


def test_defect_1_keeps_its_doubled_window_on_the_kernel_side():
    # S* - 9I/10 certifies 0 against Coburn's 1: the miss takes the old
    # N/2N check, whose count (the known undercount) stands
    T = _M1_OPERATORS["S* - 9I/10"]()
    idx, reads, ker, coker = _index_and_oracles(T)
    assert reads == [(FACTOR, T, 64), (NULLITY, T, 128), (NULLITY, T.adjoint(), 64)]
    _assert_same_kernel(idx.ker, ker)
    _assert_same_kernel(idx.coker, coker)


@pytest.mark.parametrize("name", ["patched S*", "weighted S*"])
def test_operators_off_the_toeplitz_class_get_no_bound(name):
    T = _M1_OPERATORS[name]()
    idx, reads, ker, coker = _index_and_oracles(T)
    # no upper bound: ker T, at least the index 1, is factored at 64 with no
    # values-first read; ker T*, at least 0, reads its 64 section's values
    # first; each side confirms its count at 128 from singular values
    adj = T.adjoint()
    assert reads == [
        (FACTOR, T, 64), (NULLITY, T, 128), (NULLITY, adj, 64), (NULLITY, adj, 128)
    ]
    _assert_same_kernel(idx.ker, ker)
    _assert_same_kernel(idx.coker, coker)


@pytest.mark.parametrize("name", ["patched S*", "weighted S*"])
def test_a_walk_with_a_positive_floor_factors_its_first_window_at_once(monkeypatch, name):
    # a walk told its symbol winds -1 times, so dim ker T >= 1 (and, off
    # the Toeplitz class, no upper bound), skips the values-first read of
    # its first window; a window with no raw null vector counts 0 factored
    # or not, so every kernel and window stays the same
    T = _M1_OPERATORS[name]()
    for op in (T, T.adjoint()):
        plain = KernelWalk(op)
        kernels = [plain.kernel(m) for m in range(4)]
        reads = _count_reads(monkeypatch)
        floored = KernelWalk(op, wind=-1)
        for m, sub in enumerate(kernels):
            _assert_same_kernel(floored.kernel(m), sub)
        monkeypatch.undo()
        assert reads[0] == (FACTOR, op, 64)
        assert (NULLITY, op, 64) not in reads


def test_values_first_kernels_equal_the_fully_factored_ones(monkeypatch):
    import koszulkit.ell2 as ell2

    for name, make in sorted({**_M1_OPERATORS, **_TOEPLITZ_OPERATORS}.items()):
        T = make()
        for op in (T, T.adjoint()):
            fast = KernelWalk(op).kernel(1)
            # a values-only count that is never 0 and never agrees factors
            # every window the step reads
            monkeypatch.setattr(ell2, "_section_nullity", lambda Tm, N: -1)
            full = KernelWalk(op).kernel(1)
            monkeypatch.undo()
            assert (fast.dim, fast.window) == (full.dim, full.window), name
            assert (fast.basis.shape, fast.basis.dtype) == (full.basis.shape, full.basis.dtype)
            assert np.array_equal(fast.basis, full.basis), name
    # S*: ker T*, bounded by 0, is settled by its section's singular values
    # and factored nowhere; ker T, bounded by 1, is factored at 64 with no
    # values-only read there
    T = _TOEPLITZ_OPERATORS["S*"]()
    reads = _count_reads(monkeypatch)
    idx = fredholm_index_banded(T)
    assert reads == [(FACTOR, T, 64), (NULLITY, T.adjoint(), 64)]
    assert (idx.dim_ker, idx.dim_coker, idx.coker.basis.shape) == (1, 0, (48, 0))


#: roots a + bi of modulus 3..5, or their inverses (modulus 1/5..1/3)
_roots = st.builds(
    lambda ab, inside: GR_ONE / GaussianRational(*ab) if inside else GaussianRational(*ab),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
        lambda ab: 9 <= ab[0] ** 2 + ab[1] ** 2 <= 25
    ),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(
    st.builds(GaussianRational, st.integers(1, 3), st.integers(-2, 2)),
    st.integers(0, 3),
    st.lists(_roots, min_size=1, max_size=3),
)
def test_toeplitz_index_from_coburns_shortcut_matches_the_winding_oracle(c, p, roots):
    sym = _root_symbol(c, p, roots)
    T = make_catalog_operator("toeplitz", symbol=sym)
    idx, reads, ker, coker = _index_and_oracles(T)
    _assert_one_read_per_side(idx, reads)
    assert idx.index == -oracle_winding(sym)
    assert (idx.dim_ker, idx.dim_coker) == (ker.dim, coker.dim)


#: near-circle symbols c z^(-p) (z - r) prod_s (z - s): one zero r of modulus
#: 0.8..0.99 (a slowly decaying cokernel vector) or 1.01..1.25 (a slowly
#: decaying kernel vector, as for S* - aI), the others s far from the circle
_G = GaussianRational
_NEAR_CIRCLE = [
    (_G(2, 1) if k % 5 == 0 else GR_ONE, p, r,
     [] if k % 2 == 0 else [(_G(3), _G(0, "1/4"), _G(-4, 1), _G("-1/3"))[k % 4]])
    for k, (p, r) in enumerate([
        (0, _G("9/10")), (1, _G("-4/5")), (2, _G(0, "19/20")), (0, _G("3/5", "3/5")),
        (1, _G("-7/8", "1/4")), (2, _G("1/2", "-3/4")), (0, _G("99/100")), (1, _G(0, "-17/20")),
        (2, _G("-2/3", "-2/3")), (0, _G("4/5", "1/5")), (1, _G("11/10")), (2, _G("-6/5")),
        (0, _G(0, "21/20")), (1, _G("4/5", "4/5")), (2, _G(1, "1/2")), (0, _G("-1/10", "-6/5")),
        (1, _G("101/100")), (2, _G(-1, "-1/5")), (0, _G(0, "-6/5")), (1, _G("7/8", "-7/8")),
    ])
]
#: S* - I/4, whose kernel decays fast; its index is 1
_FAST_DECAY = {-1: 1, 0: "-1/4"}
_NEAR_PATCH = Mat.from_rows([[1, "1/2"], [0, -1]])
#: the members whose certified index is wrong today (ROADMAP defect 1)
_DEFECT_1 = {
    (0, "plain"), (0, "fast"), (0, "patched"), (1, "plain"), (1, "fast"), (1, "patched"),
    (3, "plain"), (3, "fast"), (3, "patched"), (4, "patched"),
    (6, "plain"), (6, "fast"), (6, "patched"), (7, "plain"), (7, "fast"), (7, "patched"),
    (9, "plain"), (9, "fast"), (9, "patched"), (10, "plain"), (10, "fast"), (10, "patched"),
    (11, "plain"), (11, "fast"), (14, "plain"), (14, "fast"), (14, "patched"),
    (16, "plain"), (16, "fast"), (17, "plain"), (17, "fast"),
}


def test_the_near_circle_corpus_has_one_zero_near_the_circle():
    for c, p, r, far in _NEAR_CIRCLE:
        assert 0.8 <= abs(r.to_complex()) <= 0.99 or 1.01 <= abs(r.to_complex()) <= 1.25
        assert all(not 1 / 3 < abs(s.to_complex()) < 3 for s in far)
        sym = _root_symbol(c, p, [r] + far)
        assert make_catalog_operator("toeplitz", symbol=sym).bandwidth <= 3


@pytest.mark.parametrize(
    "k, variant",
    [
        pytest.param(
            k, v, id=f"near-{k}-{v}",
            marks=[pytest.mark.xfail(
                strict=True,
                reason="defect 1: a slowly decaying kernel vector is missed and the index certified",
            )] if (k, v) in _DEFECT_1 else [],
        )
        for k in range(len(_NEAR_CIRCLE))
        for v in ("plain", "fast", "patched")
    ],
)
def test_near_circle_index_is_the_winding_oracle_or_undecided(k, variant):
    c, p, r, far = _NEAR_CIRCLE[k]
    sym = _root_symbol(c, p, [r] + far)
    T = make_catalog_operator("toeplitz", symbol=sym)
    expected = -oracle_winding(sym)
    if variant == "fast":
        # the index of a product of Fredholm operators is the sum
        T, expected = T * make_catalog_operator("toeplitz", symbol=_FAST_DECAY), expected + 1
    elif variant == "patched":
        T = BandedOperator.build(T.diagonals, patch=_NEAR_PATCH)
    try:
        index = fredholm_index_banded(T).index
    except NotStabilized:
        return
    assert index == expected


def _toeplitz(symbol):
    return make_catalog_operator("toeplitz", symbol=symbol)


#: name: (operator, index); each index is -winding of the symbol
#: (Gohberg-Krein), which the adjoint test checks
_INDEX_CORPUS = {
    "S*-1/2": (_toeplitz({-1: 1, 0: "-1/2"}), 1),
    "S*-3/4": (_toeplitz({-1: 1, 0: "-3/4"}), 1),
    "S*-9/10": (_toeplitz({-1: 1, 0: "-9/10"}), 1),
    "S*-19/20": (_toeplitz({-1: 1, 0: "-19/20"}), 1),
    "S*^3-1/2": (_toeplitz({-3: 1, 0: "-1/2"}), 3),
    "3/2+5/3S": (_toeplitz({0: "3/2", 1: "5/3"}), -1),
    "weighted-adjoint": (make_catalog_operator("weighted_shift", prefix=[2], period=[1, 3]).adjoint(), 1),
    "toeplitz-2": (_toeplitz({-2: 1, 0: "1/3"}), 2),
    "patched-S*": (BandedOperator.build(_toeplitz({-1: 1}).diagonals, patch=Mat.from_rows([[2, 1], [0, -1]])), 1),
}
_LEFT_FACTORS = ("S*-9/10", "S*-1/2", "S*^3-1/2")
_RIGHT_FACTORS = ("weighted-adjoint", "toeplitz-2", "patched-S*", "S*-3/4")
#: the members whose certified index is wrong today (ROADMAP defect 1)
_WRONG_ADJOINTS = {"S*-9/10", "S*-19/20", "S*^3-1/2", "3/2+5/3S"}
_WRONG_PRODUCTS = {("S*-9/10", b) for b in _RIGHT_FACTORS} | {
    ("S*^3-1/2", "weighted-adjoint"), ("S*^3-1/2", "patched-S*"),
}


def _defect_1(wrong):
    reason = "defect 1: a slowly decaying kernel or cokernel vector is missed and the index certified"
    return [pytest.mark.xfail(strict=True, reason=reason)] if wrong else []


def _assert_index_or_undecided(T, expected):
    try:
        index = fredholm_index_banded(T).index
    except NotStabilized:
        return
    assert index == expected


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=_defect_1(name in _WRONG_ADJOINTS)) for name in _INDEX_CORPUS]
)
def test_the_index_of_an_adjoint_is_minus_the_index(name):
    T, index = _INDEX_CORPUS[name]
    assert -symbol_winding(T) == index
    _assert_index_or_undecided(T.adjoint(), -index)


@pytest.mark.parametrize(
    "a, b",
    [
        pytest.param(a, b, id=f"({a})({b})", marks=_defect_1((a, b) in _WRONG_PRODUCTS))
        for a in _LEFT_FACTORS
        for b in _RIGHT_FACTORS
    ],
)
def test_the_index_of_a_product_is_the_sum_of_the_indices(a, b):
    (A, index_a), (B, index_b) = _INDEX_CORPUS[a], _INDEX_CORPUS[b]
    _assert_index_or_undecided(A * B, index_a + index_b)


def test_symbol_winding_reads_no_entry(monkeypatch):
    # the 2K + 1 blocks of the symbol are slices of one section
    calls = []
    real = BandedOperator.entry
    monkeypatch.setattr(BandedOperator, "entry", lambda T, i, j: calls.append((i, j)) or real(T, i, j))
    W = make_catalog_operator("weighted_shift", prefix=["1/2"], period=[2, 1, 3])
    cases = [(T, -index) for T, index in _INDEX_CORPUS.values()]
    cases += [(W, 1), (W.adjoint(), -1), (_toeplitz({1: 1, 0: _G(0, "1/2")}), 1)]
    assert [symbol_winding(T) for T, _ in cases] == [wind for _, wind in cases]
    assert calls == []


# -- the recurrence oracle ---------------------------------------------------

#: name: (operator, (dim ker, dim coker)) in closed form
_KERNEL_DIMS = {
    **{f"S*-{a}": (_toeplitz({-1: 1, 0: f"-{a}"}), (1, 0)) for a in ("1/2", "3/4", "9/10", "19/20", "99/100")},
    "S*^3-1/2": (_INDEX_CORPUS["S*^3-1/2"][0], (3, 0)),
    # one root of the monodromy on each side of the circle
    "(S*-9/10)(S*-2)": (_toeplitz({-1: 1, 0: "-9/10"}) * _toeplitz({-1: 1, 0: -2}), (1, 0)),
    "3/2+5/3S": (_INDEX_CORPUS["3/2+5/3S"][0], (0, 1)),
    "toeplitz-2": (_INDEX_CORPUS["toeplitz-2"][0], (2, 0)),
    # e_k -> w_k e_(k+1) kills e_k for each zero weight w_k, and its
    # adjoint kills e_0 and e_(k+1) for each zero w_k
    "weighted-2": (make_catalog_operator("weighted_shift", prefix=["2/3"], period=["1/2", 3]), (0, 1)),
    "weighted-3": (make_catalog_operator("weighted_shift", period=[2, "3/2", 1]), (0, 1)),
    "weighted-adjoint": (_INDEX_CORPUS["weighted-adjoint"][0], (1, 0)),
    "weighted-zero": (make_catalog_operator("weighted_shift", prefix=[0, 2], period=[1]), (1, 2)),
    "weighted-zero-adjoint": (make_catalog_operator("weighted_shift", prefix=[0, 2], period=[1]).adjoint(), (2, 1)),
    # S* + F and S* (I + N), N strictly upper triangular: onto, kernel 1
    "patched-S*": (_INDEX_CORPUS["patched-S*"][0], (1, 0)),
    "S*(I+N)": (
        _toeplitz({-1: 1})
        * (identity_op() + BandedOperator.build([], patch=Mat.from_rows([[0, 1, -2], [0, 0, 3], [0, 0, 0]]))),
        (1, 0),
    ),
}
#: the members whose certified dims are wrong today (ROADMAP defect 1)
_WRONG_KERNEL_DIMS = {"S*-9/10", "S*-19/20", "S*-99/100", "S*^3-1/2", "(S*-9/10)(S*-2)", "3/2+5/3S"}


@pytest.mark.parametrize("name", list(_KERNEL_DIMS))
def test_the_recurrence_oracle_matches_the_closed_forms(name):
    T, dims = _KERNEL_DIMS[name]
    assert oracle_kernel_dims(T) == dims


@pytest.mark.parametrize("k", range(len(_NEAR_CIRCLE)))
def test_the_recurrence_oracle_gives_coburns_dims_on_scalar_toeplitz_operators(k):
    c, p, r, far = _NEAR_CIRCLE[k]
    sym = _root_symbol(c, p, [r] + far)
    wind = oracle_winding(sym)
    assert oracle_kernel_dims(_toeplitz(sym)) == (max(-wind, 0), max(wind, 0))


def test_the_recurrence_oracle_refuses_a_vanishing_outermost_tail_coefficient():
    W = make_catalog_operator("weighted_shift", period=[1, 0])
    for T in (W, W.adjoint(), BandedOperator.build([], patch=Mat.from_rows([[1]]))):
        with pytest.raises(ValueError):
            oracle_kernel_dims(T)


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=_defect_1(name in _WRONG_KERNEL_DIMS)) for name in _KERNEL_DIMS]
)
def test_the_certified_kernel_and_cokernel_match_the_recurrence_oracle(name):
    T, _ = _KERNEL_DIMS[name]
    idx = fredholm_index_banded(T)
    assert (idx.dim_ker, idx.dim_coker) == oracle_kernel_dims(T)


def test_each_power_starts_at_the_window_of_the_last(monkeypatch):
    # S* - I/2: ker T^3 needs N = 128 and every later power starts there,
    # so the walk factors T's section once at 64 and once at 128
    T = make_catalog_operator("toeplitz", symbol={-1: 1, 0: "-1/2"})
    factored, sought = _count_chain_windows(monkeypatch)
    walk = KernelWalk(T)
    kernels = {m: walk.kernel(m) for m in range(1, 11)}
    assert [m for m, sub in kernels.items() if sub.window.N == 64] == [1, 2]
    assert factored == [64, 128]
    assert [sought[m - 1] for m in range(4, 11)] == [[128]] * 7
    monkeypatch.undo()
    for m, sub in kernels.items():
        alone = KernelWalk(T).kernel(m)
        assert alone.dim == sub.dim == m and alone.window == sub.window
        assert np.array_equal(alone.basis, sub.basis)


def test_a_walk_below_the_bound_factors_each_window_once(monkeypatch):
    # the adjoint of the weighted shift with weights 0, 2, 1, 1, ...: every
    # power grows by one of dim ker T = 2, so each is confirmed at 2N and
    # accepted at N, and the next starts at N again
    import koszulkit.ell2 as ell2

    T = make_catalog_operator("weighted_shift", prefix=[0, 2], period=[1]).adjoint()
    factored, _ = _count_chain_windows(monkeypatch)
    walk = KernelWalk(T)
    kernels = {m: walk.kernel(m) for m in range(1, 9)}
    assert factored == [64, 128]
    assert [sub.dim for sub in kernels.values()] == list(range(2, 10))
    # the same walk holding one factorization refactors both windows per power
    monkeypatch.setattr(ell2, "lru_cache", lambda maxsize: lru_cache(maxsize=1))
    factored.clear()
    again = KernelWalk(T)
    for m in range(1, 9):
        _assert_same_kernel(kernels[m], again.kernel(m))
    assert factored == [64, 128] * 7


# -- index -------------------------------------------------------------------


def test_index_examples(backward_shift):
    assert fredholm_index_banded(backward_shift).index == 1
    assert fredholm_index_banded(identity_op()).index == 0
    for k in (1, 2, 3):
        T = make_catalog_operator("toeplitz", symbol={k: 1})
        assert fredholm_index_banded(T).index == -k


def test_index_matches_winding_oracle():
    symbols = [
        {1: GaussianRational(1)},
        {2: GaussianRational(1)},
        {-1: GaussianRational(1)},
        {1: GaussianRational(1), 0: GaussianRational(3)},  # 3 + z: no winding
        {2: GaussianRational(1), 0: GaussianRational(Fraction(1, 4))},
        {1: GaussianRational(1), 2: GaussianRational(2)},  # roots 0, -1/2
    ]
    for sym in symbols:
        T = make_catalog_operator("toeplitz", symbol=sym)
        assert symbol_winding(T) == oracle_winding(sym)
        assert fredholm_index_banded(T).index == -oracle_winding(sym)


def test_index_refuses_non_fredholm_symbol():
    D = make_catalog_operator("diagonal", values=[1])
    with pytest.raises(PreconditionError):
        fredholm_index_banded(D)


def test_symbol_with_triple_root_on_circle_is_not_fredholm():
    # (z - 1)^3 / z: np.roots spreads the triple root at 1 off the circle
    T = make_catalog_operator("toeplitz", symbol={-1: -1, 0: 3, 1: -3, 2: 1})
    with pytest.raises(PreconditionError):
        fredholm_index_banded(T)


def test_a_zero_between_two_samples_of_the_symbol_is_not_missed():
    # z - c with c = 0.999 e^(i pi/64), midway between two of the first 64
    # samples: their phase steps sum to winding 0, and only the Bernstein
    # bound sends the sampling on.  The symbol comes within 5e-4 of zero,
    # which no allowed sampling decides today; an exact winding gives 1
    c = 0.999 * np.exp(1j * np.pi / 64)
    re, im = (Fraction(x).limit_denominator(10**9) for x in (c.real, c.imag))
    T = make_catalog_operator("toeplitz", symbol={1: 1, 0: GaussianRational(-re, -im)})
    try:
        winding = symbol_winding(T)
    except NotStabilized:
        return  # undecided, not wrong
    assert winding == 1


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(3, 4)])
def test_shift_minus_a_has_index_one(backward_shift, a):
    T = backward_shift - identity_op().scale(a)
    assert symbol_winding(T) == -1
    assert fredholm_index_banded(T).index == 1


@pytest.mark.parametrize(
    "prefix, period",
    [([], [1, 2]), ([0], [2, Fraction(1, 2)]), ([3], [1, 2, 3]), ([], [Fraction(1, 3), 1, 2])],
)
def test_periodic_weighted_shift_index_is_minus_symbol_winding(prefix, period):
    T = make_catalog_operator("weighted_shift", prefix=prefix, period=period)
    for op, index in ((T, -1), (T.adjoint(), 1)):
        assert symbol_winding(op) == -index
        assert fredholm_index_banded(op).index == index


def test_index_multiplicativity(backward_shift):
    T2 = make_catalog_operator("toeplitz", symbol={2: 1})
    for T, base in ((backward_shift, 1), (T2, -2)):
        for m in range(1, 9):
            assert fredholm_index_banded(T.power(m)).index == m * base


def test_index_invariant_under_finite_rank_patch(backward_shift):
    patch = Mat.from_rows([[2, 1], [0, -1]])
    pert = backward_shift + BandedOperator.build([], patch=patch)
    assert fredholm_index_banded(pert).index == 1


def test_patch_and_diagonal_forms_are_one_operator(backward_shift):
    # S* + e0 e2*, once as a 3x3 patch and once as a prefix on diagonal +2
    patch = Mat.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    patched = BandedOperator.build(backward_shift.diagonals, patch=patch)
    diagonal = backward_shift + BandedOperator.build(
        [Diagonal(2, (GR_ONE,), (GaussianRational(0),))]
    )
    assert patched == diagonal and hash(patched) == hash(diagonal)
    assert patched.bandwidth == diagonal.bandwidth == 2
    assert (patched - diagonal).is_zero()


def test_index_invariant_under_small_compact_diagonal(backward_shift):
    small = make_catalog_operator(
        "diagonal", values=[Fraction(1, 2000 + k) for k in range(24)]
    )
    pert = backward_shift + small
    assert fredholm_index_banded(pert).index == 1


# -- images ---------------------------------------------------------------------


def test_apply_keeps_the_whole_image_of_a_shifted_column(forward_shift):
    K = identity_op().scale(2) + forward_shift
    e5 = np.zeros((6, 1), dtype=complex)
    e5[5, 0] = 1.0
    img = K.apply(e5)
    assert img.shape == (7, 1)
    assert np.linalg.norm(img) == pytest.approx(np.sqrt(5.0), abs=1e-9)


# -- serialization round trip ---------------------------------------------------


def test_catalog_round_trip():
    from writers import operator_to_json

    ops = [
        make_catalog_operator("shift"),
        make_catalog_operator("adjoint_shift"),
        make_catalog_operator("weighted_shift", prefix=[0], period=[1, 2]),
        make_catalog_operator("toeplitz", symbol={-1: Fraction(1, 2), 2: 1}),
        make_catalog_operator("diagonal", values=[Fraction(1, k + 1) for k in range(6)]),
        make_catalog_operator("shift") + BandedOperator.build([], patch=Mat.from_rows([[1]])),
    ]
    for op in ops:
        again = operator_from_json(operator_to_json(op))
        assert again == op
        assert np.allclose(again.section(12, 12), op.section(12, 12))
