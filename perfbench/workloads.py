"""The four workloads: seeded inputs, the CLI operations run on them, and
the oracle each operation's report is checked against.

Every workload draws its shapes from a fixed plan: sizes, families,
index classes, zero patterns and magnitudes.  ``--seed`` draws the rest,
mostly signs.  Different seeds therefore give different matrices and
operators of the same cost profile, which keeps the spread between runs
small without narrowing what is tested.

The known defects of ROADMAP open item 3 stay in the data and count as
failures.  Defect 1 gives wrong certified answers; the operations that
meet it carry a ``known`` tag, so they do not make the run incorrect.
Defect 2 ends in exit 3, which is an honest "cannot decide" and is
counted as undecided wherever it occurs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import exact as ex
from .exact import gr

#: exit codes of the CLI
EXIT_OK = 0
EXIT_NOT_STABILIZED = 3

#: absolute tolerance for float points and norms in reports
TOL = 1e-8


@dataclass
class Op:
    """One CLI call: ``koszulkit <argv>``, checked by ``CHECKS[kind]``."""

    kind: str
    argv: list
    expect: dict
    #: outcome classes ("wrong", "error") the current program is known to
    #: produce on this input, with the ROADMAP defect that explains them
    known: dict = field(default_factory=dict)
    #: obstruction cases this call builds towers for (calls_per_operator)
    tower_cases: int = 0


def _write(workdir: Path, name: str, obj) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def _plan(workload: str) -> random.Random:
    return random.Random(f"perfbench-{workload}-plan")


# -- commuting tuples ------------------------------------------------------


def _small_int(plan, rng):
    """An integer in -2..2, as acceptance c04 draws them: the plan decides
    whether it is zero (one in five) and its size, the seed its sign."""
    return gr(0) if plan.random() < 0.2 else gr(plan.choice([1, 2]) * rng.choice([-1, 1]))


def _int_matrix(plan, rng, d):
    return [[_small_int(plan, rng) for _ in range(d)] for _ in range(d)]


def _poly_coeffs(plan, rng, degree):
    """Coefficients of a polynomial of degree <= ``degree``."""
    return [_small_int(plan, rng) for _ in range(degree + 1)]


def _unimodular(plan, signs, d, shears=6):
    """Integer P with det 1 and its inverse, as products of shears whose
    positions come from the plan and signs from ``signs``."""
    P, Pinv = ex.identity(d), ex.identity(d)
    for _ in range(shears):
        if d < 2:
            break
        i, j = plan.sample(range(d), 2)
        c = signs.choice([-1, 1])
        E, Einv = ex.identity(d), ex.identity(d)
        E[i][j], Einv[i][j] = gr(c), gr(-c)
        P, Pinv = ex.mat_mul(P, E), ex.mat_mul(Einv, Pinv)
    return P, Pinv


def _diag(values):
    d = len(values)
    return [[values[i] if i == j else ex.ZERO for j in range(d)] for i in range(d)]


#: eigenvalue sizes of the conjugated diagonal tuples (signs from the seed)
EIGENVALUES = sorted({Fraction(p, q) for p in range(0, 4) for q in range(1, 4)})


def _conjugated_diagonal(plan, rng, d, n):
    """n commuting P D_k P^-1 and their joint eigenvalues, one per row.
    The plan fixes which rows of D_k share an eigenvalue and the sizes,
    the seed the signs."""
    P, Pinv = _unimodular(plan, rng, d)
    diags = []
    for _ in range(n):
        pattern = [plan.randrange(d) for _ in range(d)]
        values = [v * rng.choice([-1, 1]) for v in plan.sample(EIGENVALUES, d)]
        diags.append([gr(values[k]) for k in pattern])
    mats = [ex.mat_mul(ex.mat_mul(P, _diag(D)), Pinv) for D in diags]
    points = [tuple(D[i] for D in diags) for i in range(d)]
    return mats, points


def _tuple_json(mats) -> dict:
    return {"mode": "exact", "matrices": [ex.mat_to_json(M) for M in mats]}


# -- koszul_les ------------------------------------------------------------


def build_koszul_les(seed: int, workdir: Path, size: int = 32) -> list:
    """Tuples drawn like acceptance criterion c04: d <= 5, n <= 3, 70 %
    polynomials in one integer matrix, 30 % conjugated diagonal, each
    with one commuting augmenting S.  Every tuple runs ``les`` and
    ``cohomology``."""
    plan, rng = _plan("koszul_les"), random.Random(seed)
    ops = []
    for t in range(size):
        d, n = plan.randint(1, 5), plan.randint(1, 3)
        degrees = [plan.randint(0, 2) for _ in range(n + 1)]
        if plan.random() < 0.7:
            A = _int_matrix(plan, rng, d)
            mats = [ex.mat_poly(A, _poly_coeffs(plan, rng, k)) for k in degrees]
        else:
            mats, _ = _conjugated_diagonal(plan, rng, d, n)
            mats.append(ex.mat_poly(mats[0], _poly_coeffs(plan, rng, degrees[-1])))
        # the last matrix is the augmenting S
        base = ex.koszul_dims(mats[:-1])
        full = ex.koszul_dims(mats)
        path = _write(workdir, f"les-{t}.json", _tuple_json(mats))
        ops.append(Op("les", ["les", "--input", path], {"base": base, "full": full}))
        path = _write(workdir, f"tuple-{t}.json", _tuple_json(mats[:-1]))
        ops.append(Op("cohomology", ["cohomology", "--input", path], {"dims": base}))
    return ops


def _check_les(rep, exp) -> bool:
    full = list(exp["full"])
    return (
        rep["agree"] is True
        and rep["index"] == 0
        and rep["dims_direct"] == full
        and rep["dims_sequence"] == full
        and rep["base_dims"] == list(exp["base"])
    )


def _check_cohomology(rep, exp) -> bool:
    dims = list(exp["dims"])
    return rep["dims"] == dims and rep["index"] == 0 and rep["invertible"] == (sum(dims) == 0)


# -- joint_spectrum --------------------------------------------------------


def _jordan_tuple(plan, rng, d, n, degree):
    """P J P^-1 for one Jordan block J with eigenvalue 1/3, and for n = 2
    a polynomial in it; the joint spectrum is one point of multiplicity d.
    P comes from the plan alone: its conditioning decides whether the
    float eigenvalues stay within the snap bound (ROADMAP item 3, defect
    2), so every seed meets the same share of that defect."""
    P, Pinv = _unimodular(plan, plan, d)
    third = gr(Fraction(1, 3))
    J = [
        [third if i == j else (ex.ONE if j == i + 1 else ex.ZERO) for j in range(d)]
        for i in range(d)
    ]
    A = ex.mat_mul(ex.mat_mul(P, J), Pinv)
    mats, point = [A], [third]
    if n == 2:
        q = _poly_coeffs(plan, rng, degree)
        mats.append(ex.mat_poly(A, q))
        point.append(_eval_univariate(q, third))
    return mats, [tuple(point)] * d


def _eval_univariate(coeffs, x):
    out, power = ex.ZERO, ex.ONE
    for c in coeffs:
        out = ex.add(out, ex.mul(c, power))
        power = ex.mul(power, x)
    return out


def _random_map(plan, rng, nvars):
    """1-2 components, each 1-3 terms of total degree <= 2; the shape
    comes from the plan, the signs from the seed."""
    comps = []
    for _ in range(plan.randint(1, 2)):
        terms = []
        for _ in range(plan.randint(1, 3)):
            expo = [0] * nvars
            for _ in range(plan.randint(0, 2)):
                expo[plan.randrange(nvars)] += 1
            terms.append((tuple(expo), gr(rng.choice([-1, 1]))))
        comps.append(terms)
    return comps


def _eval_map(comps, point):
    out = []
    for terms in comps:
        s = ex.ZERO
        for expo, c in terms:
            v = c
            for x, k in zip(point, expo):
                for _ in range(k):
                    v = ex.mul(v, x)
            s = ex.add(s, v)
        out.append(s)
    return tuple(out)


def _map_json(comps) -> list:
    return [
        [{"coeff": ex.scalar_to_json(c), "monomial": list(e)} for e, c in terms]
        for terms in comps
    ]


def _spectrum_expect(points) -> list:
    """Distinct points (as complex tuples) with summed multiplicities."""
    merged = {}
    for p in points:
        merged[p] = merged.get(p, 0) + 1
    return sorted(
        ([[ex.to_complex(z) for z in p], m] for p, m in merged.items()),
        key=lambda pm: [(z.real, z.imag) for z in pm[0]],
    )


def build_joint_spectrum(seed: int, workdir: Path, size: int = 24) -> list:
    """``size`` conjugated diagonal tuples (d 2-6) and ``size`` conjugated
    Jordan tuples (eigenvalue 1/3, d 2-6); each runs ``spectrum`` and
    ``spectrum --map`` with a small polynomial map."""
    plan, rng = _plan("joint_spectrum"), random.Random(seed)
    ops = []
    for t in range(2 * size):
        d, n, degree = plan.randint(2, 6), plan.randint(1, 2), plan.randint(1, 2)
        if t % 2 == 0:
            mats, points = _conjugated_diagonal(plan, rng, d, n)
        else:
            mats, points = _jordan_tuple(plan, rng, d, n, degree)
        comps = _random_map(plan, rng, n)
        path = _write(workdir, f"spec-{t}.json", _tuple_json(mats))
        mpath = _write(workdir, f"map-{t}.json", _map_json(comps))
        ops.append(Op("spectrum", ["spectrum", "--input", path], {"points": _spectrum_expect(points)}))
        mapped = _spectrum_expect([_eval_map(comps, p) for p in points])
        ops.append(
            Op("spectrum", ["spectrum", "--input", path, "--map", mpath], {"points": mapped})
        )
    return ops


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _check_spectrum(rep, exp) -> bool:
    want = exp["points"]
    got = [([complex(*z) for z in p["point"]], p["multiplicity"]) for p in rep["points"]]
    if len(got) != len(want) or sum(m for _, m in got) != rep["dimension"]:
        return False
    for point, mult in want:
        hits = [
            m for q, m in got if len(q) == len(point) and all(map(_close, q, point))
        ]
        if hits != [mult]:
            return False
    return True


# -- fredholm_catalog ------------------------------------------------------


def _operator_json(symbol: dict, patch=None) -> dict:
    """Banded Toeplitz operator with Laurent symbol {k: c_k}: the entry
    at (i, j) is the coefficient of z^(i - j)."""
    diags = [
        {"offset": -k, "prefix": [], "period": [ex.scalar_to_json(c)]}
        for k, c in sorted(symbol.items())
        if c != ex.ZERO
    ]
    return {
        "bandwidth": max((abs(k) for k in symbol), default=0),
        "diagonals": diags,
        "patch": ex.mat_to_json(patch) if patch is not None else None,
        "fredholm": True,
    }


def _unit(plan, rng):
    """+-1 or +-i: real or imaginary from the plan (complex entries cost
    more), the sign from the seed."""
    return ex.mul(plan.choice([gr(1), gr(0, 1)]), gr(rng.choice([-1, 1])))


def _root(plan, rng, inside: bool):
    m = Fraction(1, plan.choice([3, 4, 5])) if inside else Fraction(plan.choice([3, 4, 5]))
    return ex.mul(gr(m), _unit(plan, rng))


def _symbol_from_roots(plan, rng, p: int, q: int, inside: int) -> dict:
    """c z^-p prod (z - r_i) with p + q roots, ``inside`` of them in the
    unit disc; its winding number is inside - p."""
    poly = [gr(rng.choice([-2, -1, 1, 2]))]
    for i in range(p + q):
        r = _root(plan, rng, i < inside)
        shifted = [ex.ZERO] + poly  # z * poly
        poly = [ex.add(a, ex.mul((-r[0], -r[1]), b)) for a, b in zip(shifted, poly + [ex.ZERO])]
    return {k - p: c for k, c in enumerate(poly)}


#: (p, q, roots inside) of the scalar Toeplitz family: bandwidth 1-3,
#: index p - inside from -2 to 2
TOEPLITZ_SLOTS = (
    (1, 0, 0), (1, 1, 1), (1, 1, 0), (0, 1, 1), (2, 0, 0), (2, 1, 1),
    (1, 2, 2), (2, 2, 1), (3, 0, 1), (1, 3, 3), (3, 3, 3), (0, 2, 2),
)

#: S* - a I: index +1 for every a < 1, kernel spanned by (a^k)
SHIFT_MINUS_A = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(19, 20))

#: ROADMAP open item 3, defect 1: for a >= 9/10 the N-versus-2N section
#: check stabilises on a kernel that decays too slowly, so ``index``
#: certifies 0 and ``tower`` stops with the wrong-sign exit 4
DEFECT_SLOW_DECAY = "ROADMAP item 3 defect 1 (slowly decaying kernel)"


def build_fredholm_catalog(seed: int, workdir: Path) -> list:
    """``index`` on every member, ``tower --max-level 12`` on the positive-
    index members of the shift-like subfamilies.  Members: scalar Toeplitz
    operators with random Laurent symbols of bandwidth 1-3, weighted
    shifts with period > 1, finite-rank patches, z^-k + c and S* - a I.

    Two towers are left out for cost, not for their answers: those of the
    random-root Toeplitz symbols (up to 20 s each, most end in exit 3)
    and that of S* - (3/4) I (22 s, exit 3); either is longer than a run.
    """
    plan, rng = _plan("fredholm_catalog"), random.Random(seed)
    members = []  # (name, operator json, index, Coburn dims?, tower?, known)
    for t, (p, q, inside) in enumerate(TOEPLITZ_SLOTS):
        sym = _symbol_from_roots(plan, rng, p, q, inside)
        if ex.winding(sym) != inside - p:
            raise RuntimeError(f"symbol {sym} does not have winding {inside - p}")
        members.append((f"toeplitz-{t}", _operator_json(sym), p - inside, True, False, {}))
    weights = [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    for t, (offset, period) in enumerate(((1, 2), (1, 3), (-1, 2))):
        diag = {
            "offset": offset,
            "prefix": [ex.scalar_to_json(gr(rng.choice(weights))) for _ in range(plan.randint(0, 2))],
            "period": [ex.scalar_to_json(gr(rng.choice(weights))) for _ in range(period)],
        }
        op = {"bandwidth": 1, "diagonals": [diag], "patch": None, "fredholm": True}
        members.append((f"weighted-{t}", op, offset, True, offset > 0, {}))
    for t, size in enumerate((2, 3)):
        # S* (I + N) with N strictly upper triangular: onto, index +1
        N = [[_small_int(plan, rng) if j > i else ex.ZERO for j in range(size)] for i in range(size)]
        patch = [N[i + 1] if i + 1 < size else [ex.ZERO] * size for i in range(size)]
        members.append((f"patched-shift-{t}", _operator_json({-1: ex.ONE}, patch), 1, True, True, {}))
    for t, (p, q, inside) in enumerate(((1, 1, 1), (0, 1, 1))):
        sym = _symbol_from_roots(plan, rng, p, q, inside)
        size = plan.randint(2, 3)
        F = _int_matrix(plan, rng, size)
        members.append((f"patched-toeplitz-{t}", _operator_json(sym, F), p - inside, False, False, {}))
    for k in (1, 2):
        c = ex.mul(_unit(plan, rng), gr(Fraction(1, 2 + k)))
        members.append((f"toeplitz-power-{k}", _operator_json({-k: ex.ONE, 0: c}), k, True, True, {}))
    for a in SHIFT_MINUS_A:
        known = {"wrong": DEFECT_SLOW_DECAY, "error": DEFECT_SLOW_DECAY} if a >= Fraction(9, 10) else {}
        op = _operator_json({-1: ex.ONE, 0: gr(-a)})
        members.append((f"shift-minus-{a.numerator}-{a.denominator}", op, 1, True, a != Fraction(3, 4), known))

    ops = []
    for name, op, idx, coburn, tower, known in members:
        path = _write(workdir, f"{name}.json", op)
        exp = {"index": idx, "coburn": coburn}
        ops.append(Op("index", ["index", "--input", path], exp, known=known))
        if tower:
            argv = ["tower", "--input", path, "--max-level", "12"]
            ops.append(Op("tower", argv, exp, known=known, tower_cases=1))
    return ops


def _check_index(rep, exp) -> bool:
    idx = exp["index"]
    if rep["index"] != idx or rep["certified"] is not True:
        return False
    if not exp["coburn"]:
        return rep["dim_ker"] - rep["dim_coker"] == idx
    return rep["dim_ker"] == max(idx, 0) and rep["dim_coker"] == max(-idx, 0)


def _check_tower(rep, exp) -> bool:
    """Every towered member is onto, so dim ker T^m = m * index."""
    idx = exp["index"]
    return (
        rep["index"] == idx
        and rep["kernel_dims"] == [m * idx for m in range(1, 13)]
        and rep["dims"] == [idx] * 12
    )


# -- obstruction_demos -----------------------------------------------------


def build_obstruction_demos(seed: int, workdir: Path) -> list:
    """The two headline demos; theorem-2.1 twice per pass because it is the
    one whose kernel towers are built repeatedly.  The seed only rotates
    the order."""
    ops = [
        Op("demo-1.1", ["demo", "theorem-1.1"], {}),
        Op("demo-2.1", ["demo", "theorem-2.1"], {}, tower_cases=3),
        Op("demo-2.1", ["demo", "theorem-2.1"], {}, tower_cases=3),
    ]
    k = seed % len(ops)
    return ops[k:] + ops[:k]


def _check_demo_11(rep, exp) -> bool:
    """Acceptance c09: dim ker T^m = m and the rank-4 budget flips at m = 5."""
    rows = rep["rows"]
    return (
        rep["base_index"] == 1
        and rep["rank_bound"] == 4
        and [r["m"] for r in rows] == list(range(1, 11))
        and all(
            r["dim_ker"] == r["m"] and r["dim_coker"] == 0 and r["index"] == r["m"]
            and r["exceeds"] == (r["m"] >= 5)
            for r in rows
        )
    )


def _check_demo_21(rep, exp) -> bool:
    """Acceptance c10 and c13: verdicts, r = 2 and norms >= 2 for 2I+T."""
    cases = {c["name"]: c for c in rep["cases"]}
    if {n: c["verdict"] for n, c in cases.items()} != {
        "2I+T": "obstructed", "T": "inconclusive", "0": "inconclusive",
    }:
        return False
    k = cases["2I+T"]
    x_ok = all(
        lv["X"]["rows"] == lv["X"]["cols"] == 1
        and abs(float(lv["X"]["entries"][0][0]) - 2.0) <= TOL
        for lv in k["levels"]
    )
    return (
        x_ok
        and k["dims"] == [1] * 12
        and k["n0"] <= 3
        and abs(k["r"] - 2.0) <= TOL
        and all(v >= 2.0 - TOL for v in k["norms"])
        and cases["T"]["r"] <= TOL
        and cases["0"]["r"] <= TOL
    )


CHECKS = {
    "les": _check_les,
    "cohomology": _check_cohomology,
    "spectrum": _check_spectrum,
    "index": _check_index,
    "tower": _check_tower,
    "demo-1.1": _check_demo_11,
    "demo-2.1": _check_demo_21,
}

BUILDERS = {
    "koszul_les": build_koszul_les,
    "joint_spectrum": build_joint_spectrum,
    "fredholm_catalog": build_fredholm_catalog,
    "obstruction_demos": build_obstruction_demos,
}


def classify(op: Op, rc: int, out: bytes) -> str:
    """ok, wrong (exit 0, disagrees with the oracle), undecided (exit 3)
    or error (any other exit, or a report that does not parse)."""
    if rc == EXIT_NOT_STABILIZED:
        return "undecided"
    if rc != EXIT_OK:
        return "error"
    try:
        rep = json.loads(out)
        good = CHECKS[op.kind](rep, op.expect)
    except (ValueError, KeyError, TypeError, IndexError):
        return "error"
    return "ok" if good else "wrong"
