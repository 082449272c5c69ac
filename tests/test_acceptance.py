"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines; the corpus seed comes from KOSZULKIT_SEED.
"""

import ast
import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from koszulkit.cli import main
from koszulkit.ell2 import KernelWalk, make_catalog_operator, identity_op, fredholm_index_banded
from koszulkit.koszul import augment_les, cohomology, kernel_restriction_check, koszul_complex, validate_tuple
from koszulkit.linalg import Mat
from koszulkit.polymap import Polynomial, PolyMap
from koszulkit.scalars import EXACT, GaussianRational
from koszulkit.spectrum import spectral_mapping_check
from koszulkit.tower import (
    commutant_blocks,
    growth_table,
    kernel_tower,
    obstruction_certificate,
)

from oracles import oracle_rank, oracle_winding
from randgen import (
    get_rng,
    random_commuting_tuple,
    random_invertible_pair,
    random_poly_in,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:2d} {label}: PASS")


@pytest.fixture(scope="module")
def corpus():
    """200 random commuting tuples, exact mode, d <= 5, n <= 3."""
    rng = get_rng()
    out = []
    for _ in range(200):
        d = rng.randint(1, 5)
        n = rng.randint(1, 3)
        scheme = "poly" if rng.random() < 0.7 else "diag"
        out.append(random_commuting_tuple(rng, d, n, scheme=scheme))
    return out


def test_c01_chain_complex_identity(corpus):
    with criterion(1, "chain-complex identity on 200 random tuples"):
        start = time.time()
        for T in corpus:
            diffs = koszul_complex(T).differentials
            for p in range(T.n - 1):
                assert (diffs[p + 1] @ diffs[p]).is_zero()
        elapsed = time.time() - start
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"


def test_c02_euler_characteristic_and_rank_oracle(corpus):
    with criterion(2, "index 0 and dims vs independent rank oracle"):
        for T in corpus:
            rep = cohomology(T)
            assert rep.index == 0
            diffs = koszul_complex(T).differentials
            prev = 0
            for p in range(T.n + 1):
                if p < T.n:
                    cols, rp = diffs[p].cols, oracle_rank(diffs[p])
                else:
                    cols, rp = T.d * comb(T.n, T.n), 0
                assert rep.dims[p] == cols - rp - prev
                prev = rp


def test_c03_zero_tuple_closed_form():
    with criterion(3, "zero-tuple dims are d*C(n,p)"):
        for d in range(1, 7):
            for n in range(1, 5):
                T = validate_tuple([Mat.zeros(d, d) for _ in range(n)])
                rep = cohomology(T)
                assert rep.dims == tuple(d * comb(n, p) for p in range(n + 1))
                assert rep.index == 0


def test_c04_les_exactness():
    with criterion(4, "augmentation sequence bookkeeping on 100 tuples"):
        rng = get_rng()
        for _ in range(100):
            d = rng.randint(1, 5)
            n = rng.randint(1, 3)
            if rng.random() < 0.7:
                from randgen import random_exact_matrix

                A = random_exact_matrix(rng, d)
                T = validate_tuple([random_poly_in(rng, A) for _ in range(n)])
                S = random_poly_in(rng, A)
            else:
                T = random_commuting_tuple(rng, d, n, scheme="diag")
                S = random_poly_in(rng, T.matrices[0])
            rep = augment_les(T, S)
            assert rep.agree, (rep.dims_direct, rep.dims_sequence)
            assert rep.index == 0


def _gentle_triangularizable_tuple(rng, d, n):
    """Conjugated diagonal tuple with denominator-2 eigenvalues."""
    from koszulkit.linalg import solve
    from randgen import random_unimodular

    P = random_unimodular(rng, d, shears=4)
    Pinv = solve(P, Mat.identity(d, EXACT))
    mats = []
    for _ in range(n):
        diag = [
            GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(d)
        ]
        D = Mat.from_rows(
            [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)], EXACT
        )
        mats.append(P @ D @ Pinv)
    return validate_tuple(mats)


def _gentle_poly_map(rng, nvars, arity, max_degree=3):
    comps = []
    for _ in range(arity):
        terms = []
        for _ in range(rng.randint(1, 3)):
            remaining = max_degree
            expo = []
            for _ in range(nvars):
                k = rng.randint(0, remaining)
                expo.append(k)
                remaining -= k
            c = rng.choice([-1, 1])
            terms.append((tuple(expo), c))
        comps.append(Polynomial.from_terms(nvars, terms, EXACT))
    return PolyMap.from_components(comps)


def test_c05_spectral_mapping():
    with criterion(5, "spectral mapping on 100 triangularizable tuples"):
        rng = get_rng()
        for _ in range(100):
            d = rng.randint(1, 4)
            n = rng.randint(1, 3)
            T = _gentle_triangularizable_tuple(rng, d, n)
            f = _gentle_poly_map(rng, n, rng.randint(1, 2))
            assert spectral_mapping_check(f, T, 1e-6)


def test_c06_shift_kernel_law(backward_shift):
    with criterion(6, "dim ker (backward shift)^m = m for m <= 20"):
        for m in range(1, 21):
            sub = KernelWalk(backward_shift).kernel(m)
            assert sub.dim == m


def test_c07_toeplitz_index():
    with criterion(7, "index of toeplitz(z^k) = -k = -winding"):
        for k in (1, 2, 3):
            sym = {k: GaussianRational(1)}
            T = make_catalog_operator("toeplitz", symbol=sym)
            idx = fredholm_index_banded(T)
            assert idx.index == -k == -oracle_winding(sym)


def test_c08_index_multiplicativity(backward_shift):
    with criterion(8, "index(T^m) = m * index(T), m <= 8"):
        T_z2 = make_catalog_operator("toeplitz", symbol={2: 1})
        for T in (backward_shift, T_z2):
            base = fredholm_index_banded(T).index
            for m in range(1, 9):
                assert fredholm_index_banded(T.power(m)).index == m * base


def test_c09_finite_rank_growth_demo(backward_shift):
    with criterion(9, "growth table flags rank budget from m = 5"):
        table = growth_table(backward_shift, range(1, 11), 4)
        for row in table.rows:
            assert row.dim_ker == row.m
            assert row.exceeds == (row.m >= 5)


def test_c10_compactness_obstruction_demo(backward_shift):
    with criterion(10, "obstruction certificate on the backward shift"):
        K = identity_op().scale(2) + backward_shift
        tower = kernel_tower(backward_shift, 12)
        assert tower.layer_dims() == (1,) * 12
        assert tower.n0 <= 3
        blocks = commutant_blocks(tower, K)
        for lv in blocks.levels:
            assert lv.x_block.shape == (1, 1)
            assert abs(lv.x_block[0, 0] - 2.0) <= 1e-8
            if lv.intertwine_residual is not None:
                assert lv.intertwine_residual <= 1e-9
        cert = obstruction_certificate(tower, K)
        assert abs(cert.r - 2.0) <= 1e-8
        for n in range(1, 13):
            assert cert.norms[n] >= 2.0 - 1e-8
        assert cert.verdict == "obstructed"
        cert2 = obstruction_certificate(tower, backward_shift)
        assert cert2.r <= 1e-8
        assert cert2.verdict == "inconclusive"


def test_c11_kernel_restriction_property():
    with criterion(11, "restriction invertible on 100 invertible pairs"):
        rng = get_rng()
        for _ in range(100):
            T, S = random_invertible_pair(rng, rng.randint(2, 4))
            for n in range(1, 5):
                assert kernel_restriction_check(T, S, n)


def test_c12_similarity_chain(backward_shift):
    with criterion(12, "corner blocks share characteristic polynomials"):
        rng = get_rng()
        tower = kernel_tower(backward_shift, 12)
        tried = 0
        while tried < 8:
            coeffs = [rng.randint(-3, 3) for _ in range(4)]
            if all(c == 0 for c in coeffs):
                continue
            tried += 1
            S = backward_shift.poly(coeffs)
            blocks = commutant_blocks(tower, S)
            for n in range(tower.n0 + 1, 13):
                assert blocks.charpoly_max_diff[n] <= 1e-8


def test_c13_determinism(tmp_path):
    with criterion(13, "byte-identical reports on identical config"):
        outs = []
        for name in ("a", "b"):
            p1 = tmp_path / f"d1-{name}.json"
            p2 = tmp_path / f"d2-{name}.json"
            assert main(["demo", "theorem-1.1", "--out", str(p1)]) == 0
            assert main(["demo", "theorem-2.1", "--out", str(p2)]) == 0
            outs.append((p1.read_bytes(), p2.read_bytes()))
        assert outs[0] == outs[1]
        rep = json.loads(outs[0][1])
        assert {c["name"]: c["verdict"] for c in rep["cases"]} == {
            "2I+T": "obstructed",
            "T": "inconclusive",
            "0": "inconclusive",
        }


def test_readme_library_quick_tour_gives_the_values_its_comments_state():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    ns, shown = {}, []  # shown: the values of the bare expression lines
    for stmt in ast.parse(tour.split("```", 1)[0]).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert ns["rep"].dims == (1, 2, 1)
    assert shown == [1, (1, 1, 0)]  # index +1; the pair (T, T)
    assert abs(ns["cert"].r - 2) <= 1e-8 and ns["cert"].verdict == "obstructed"
