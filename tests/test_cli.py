import argparse
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import koszulkit.cli as cli
from koszulkit import errors
from koszulkit.cli import main
from koszulkit.jsonio import (
    REPORT_FLOAT_FLOOR,
    emit_report,
    mat_from_json,
    mat_from_numpy_json,
    matrices_from_json,
    operator_from_json,
    polymap_from_json,
    report_to_json_bytes,
    tuple_from_json,
)
from koszulkit.koszul import validate_tuple
from koszulkit.linalg import Mat, solve
from koszulkit.scalars import GaussianRational
from koszulkit.tower import kernel_tower

from randgen import get_rng, random_unimodular
from writers import polymap_to_json, tuple_to_json
jsonschema = pytest.importorskip("jsonschema")

ASH = {
    "bandwidth": 1,
    "diagonals": [{"offset": 1, "prefix": [], "period": [["1", "0"]]}],
    "patch": None,
    "fredholm": True,
}

TUPLE_N0 = {
    "mode": "exact",
    "matrices": [
        {"rows": 2, "cols": 2, "entries": [["0", "0"], ["1", "0"], ["0", "0"], ["0", "0"]]},
        {"rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]},
    ],
}

NONCOMMUTING = {
    "mode": "exact",
    "matrices": [
        {"rows": 2, "cols": 2, "entries": [["0", "0"], ["1", "0"], ["0", "0"], ["0", "0"]]},
        {"rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "0"], ["1", "0"], ["0", "0"]]},
    ],
}


@pytest.fixture
def schema():
    from importlib import resources

    text = resources.files("koszulkit").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run_cli(args, tmp_path, out="out.json"):
    out_path = tmp_path / out
    code = main(args + ["--out", str(out_path)])
    data = out_path.read_bytes() if out_path.exists() else b""
    return code, data


def test_cohomology_command(tmp_path, schema):
    inp = write(tmp_path, "t.json", TUPLE_N0)
    code, data = run_cli(["cohomology", "--input", inp], tmp_path)
    assert code == 0
    rep = json.loads(data)
    assert rep["dims"] == [1, 2, 1] and rep["index"] == 0
    jsonschema.validate(rep, schema)


def test_les_and_index_and_growth_reports_validate(tmp_path, schema):
    inp = write(tmp_path, "t.json", TUPLE_N0)
    for args, name in [
        (["les", "--input", inp], "les.json"),
        (["index", "--input", write(tmp_path, "a.json", ASH)], "index.json"),
        (
            [
                "growth",
                "--input",
                write(tmp_path, "a2.json", ASH),
                "--powers",
                "1:6",
                "--rank-bound",
                "4",
            ],
            "growth.json",
        ),
        (["tower", "--input", write(tmp_path, "a3.json", ASH), "--max-level", "6"], "tw.json"),
    ]:
        code, data = run_cli(args, tmp_path, name)
        assert code == 0
        jsonschema.validate(json.loads(data), schema)


def test_obstruct_command(tmp_path, schema):
    K = {
        "diagonals": [
            {"offset": 0, "period": [["2", "0"]]},
            {"offset": 1, "period": [["1", "0"]]},
        ]
    }
    inp = write(tmp_path, "obs.json", {"operator": ASH, "perturbation": K})
    code, data = run_cli(["obstruct", "--input", inp, "--max-level", "8"], tmp_path)
    assert code == 0
    rep = json.loads(data)
    assert rep["verdict"] == "obstructed"
    assert rep["r"] == pytest.approx(2.0, abs=1e-8)
    jsonschema.validate(rep, schema)


@pytest.mark.parametrize(
    "h",
    [
        pytest.param(
            h,
            id=f"h={h}",
            marks=[pytest.mark.xfail(
                strict=True,
                reason="defect 3: rounding moves the eigenvalues of a nilpotent h x h block "
                "to about eps^(1/h), which clears the absolute TOL_RADIUS",
            )] if h > 2 else [],
        )
        for h in range(2, 6)
    ],
)
def test_obstruct_does_not_call_a_nilpotent_perturbation_obstructed(tmp_path, h):
    # K = S* = p(S*) with p(z) = z commutes with T = S*^h, and the exact r is
    # |p(0)| = 0: K's block on the h-dimensional layers is the nilpotent
    # h x h shift.  For h = 2 the computed r = 9.996e-9 stays under TOL_RADIUS
    T = {"diagonals": [{"offset": h, "period": [["1", "0"]]}]}
    inp = write(tmp_path, "obs.json", {"operator": T, "perturbation": ASH})
    code, data = run_cli(["obstruct", "--input", inp, "--max-level", "8"], tmp_path)
    assert code in (0, 3)
    assert code == 3 or json.loads(data)["verdict"] != "obstructed"


def test_exit_codes(tmp_path):
    bad = write(tmp_path, "bad.json", NONCOMMUTING)
    assert main(["cohomology", "--input", bad]) == 2
    ash = write(tmp_path, "a.json", ASH)
    assert main(["tower", "--input", ash, "--max-level", "3"]) == 3
    ident = write(
        tmp_path,
        "i.json",
        {"diagonals": [{"offset": 0, "period": [["1", "0"]]}], "fredholm": True},
    )
    assert main(["growth", "--input", ident, "--powers", "1:3"]) == 4
    fwd = write(
        tmp_path,
        "f.json",
        {"diagonals": [{"offset": -1, "period": [["1", "0"]]}], "fredholm": True},
    )
    assert main(["tower", "--input", fwd, "--max-level", "6"]) == 4


def test_obstruct_rejects_a_tiny_nonzero_commutator(tmp_path, capsys):
    # [S*, I + 1e-12 S] = 1e-12 e0 e0*: small, but not zero
    K = {
        "diagonals": [
            {"offset": 0, "period": [["1", "0"]]},
            {"offset": -1, "period": [["1/1000000000000", "0"]]},
        ]
    }
    inp = write(tmp_path, "obs.json", {"operator": ASH, "perturbation": K})
    assert main(["obstruct", "--input", inp, "--max-level", "8"]) == 2
    assert "error[NonCommuting]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj, message",
    [
        ([ASH, ASH], "obstruct input must be a JSON object"),
        ({"operator": ASH}, "obstruct input needs {'operator': ..., 'perturbation': ...}"),
    ],
    ids=["list", "no-perturbation"],
)
def test_obstruct_refuses_an_input_that_is_not_an_operator_pair(tmp_path, capsys, obj, message):
    inp = write(tmp_path, "obs.json", obj)
    assert main(["obstruct", "--input", inp]) == 2
    assert capsys.readouterr().err.strip() == f"error[FormatError]: {message}"


def test_removed_tolerance_flag_is_rejected(tmp_path):
    inp = write(tmp_path, "t.json", TUPLE_N0)
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--input", inp, "--tol-comm", "1e-3"])
    assert exc.value.code == 2


def shift_minus(a):
    """S* - a I as an operator file without a "fredholm" key."""
    return {
        "diagonals": [
            {"offset": 0, "period": [[a, "0"]]},
            {"offset": 1, "period": [["1", "0"]]},
        ]
    }


def test_index_refuses_non_fredholm_operator_marked_fredholm(tmp_path):
    op = write(tmp_path, "s.json", shift_minus("-1") | {"fredholm": True})
    assert main(["index", "--input", op]) == 4


def test_index_of_invertible_operator_needs_no_flag(tmp_path):
    op = write(tmp_path, "s.json", shift_minus("2"))
    code, data = run_cli(["index", "--input", op], tmp_path)
    assert code == 0
    rep = json.loads(data)
    assert rep["index"] == 0 and rep["certified"] is True


@pytest.mark.parametrize("flag", [False, None])
def test_stale_fredholm_key_is_ignored(tmp_path, flag):
    bare = {k: v for k, v in ASH.items() if k != "fredholm"}
    stale = bare | {"fredholm": flag}
    assert operator_from_json(stale) == operator_from_json(bare)
    code, data = run_cli(["index", "--input", write(tmp_path, "a.json", stale)], tmp_path)
    assert code == 0 and json.loads(data)["index"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--input", "t.json", "--window", "5"],
        ["spectrum", "--input", "t.json", "--tol-rank", "1e-3"],
        ["demo", "theorem-1.1", "--powers", "1:3"],
        # the section window follows one automatic rule; no command sets it
        ["index", "--input", "t.json", "--window", "64"],
        ["tower", "--input", "t.json", "--guard", "16"],
        ["growth", "--input", "t.json", "--window", "64"],
        ["obstruct", "--input", "t.json", "--guard", "16"],
        ["demo", "theorem-2.1", "--window", "64"],
        # a demo's scenario file alone sets its depth and rank bound
        ["demo", "theorem-2.1", "--max-level", "5"],
        ["demo", "theorem-1.1", "--rank-bound", "1"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, argv):
    inp = write(tmp_path, "t.json", TUPLE_N0)
    with pytest.raises(SystemExit) as exc:
        main([inp if a == "t.json" else a for a in argv])
    assert exc.value.code == 2


def _readme_flag_bullets():
    """{command: flags} from the README bullets between "takes only the
    flags it reads" and "Any other flag"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("takes only the flags it reads")
    section = readme[start : readme.index("Any other flag", start)]
    listed = {}
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", section, flags=re.M):
        names, rest = bullet.split(":", 1)
        flags = set(re.findall(r"`(--[a-z-]+)", rest))
        for name in re.findall(r"`([a-z]+)`", names):
            listed[name] = flags
    return listed


def test_readme_lists_exactly_the_flags_each_command_takes():
    from koszulkit.cli import _COMMANDS

    assert _readme_flag_bullets() == {name: set(flags) for name, _, flags in _COMMANDS}


def test_reports_are_byte_stable(tmp_path):
    inp = write(tmp_path, "t.json", TUPLE_N0)
    _, first = run_cli(["cohomology", "--input", inp], tmp_path, "r1.json")
    _, second = run_cli(["cohomology", "--input", inp], tmp_path, "r2.json")
    assert first == second
    ash = write(tmp_path, "a.json", ASH)
    _, g1 = run_cli(["growth", "--input", ash, "--powers", "1:8", "--format", "csv"], tmp_path, "g1.csv")
    _, g2 = run_cli(["growth", "--input", ash, "--powers", "1:8", "--format", "csv"], tmp_path, "g2.csv")
    assert g1 == g2


@pytest.mark.parametrize("powers", ["3:1", "-1", "2,-1", ",", ""])
def test_growth_refuses_empty_or_negative_powers(tmp_path, capsys, powers):
    ash = write(tmp_path, "a.json", ASH)
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--input", ash, "--powers", powers])
    assert exc.value.code == 2
    assert "argument --powers" in capsys.readouterr().err


def test_growth_keeps_power_zero_and_repeated_powers(tmp_path):
    ash = write(tmp_path, "a.json", ASH)
    code, data = run_cli(["growth", "--input", ash, "--powers", "0,2,2"], tmp_path)
    assert code == 0
    rows = json.loads(data)["rows"]
    assert [(r["m"], r["dim_ker"], r["dim_coker"]) for r in rows] == [(0, 0, 0), (2, 2, 0), (2, 2, 0)]


def test_growth_reports_validate_and_a_negative_rank_bound_is_refused(tmp_path, capsys, schema):
    ash = write(tmp_path, "a.json", ASH)
    for args in (["--powers", "0:2"], ["--rank-bound", "0"]):
        code, data = run_cli(["growth", "--input", ash, *args], tmp_path)
        assert code == 0
        jsonschema.validate(json.loads(data), schema)
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--input", ash, "--rank-bound", "-3"])
    assert exc.value.code == 2
    assert "argument --rank-bound" in capsys.readouterr().err
    scenario = {"demo": "growth", "operator": ASH, "powers": [1, 2], "rank_bound": -3}
    assert main(["demo", "theorem-1.1", "--input", write(tmp_path, "s.json", scenario)]) == 2
    assert "error[FormatError]" in capsys.readouterr().err


def _shift2_plus(re, im):
    """S*^2 + cI: index 2 and coker 0, so dim ker T^m = 2m."""
    return {
        "diagonals": [
            {"offset": 2, "period": [["1", "0"]]},
            {"offset": 0, "period": [[re, im]]},
        ],
    }


@pytest.mark.parametrize(
    "powers, rows",
    [
        ("0,2,5", [(0, 0, 0), (2, 4, 0), (5, 10, 0)]),
        ("3", [(3, 6, 0)]),
        ("1,4,7", [(1, 2, 0), (4, 8, 0), (7, 14, 0)]),
    ],
)
def test_growth_rows_of_a_shifted_square(tmp_path, powers, rows):
    inp = write(tmp_path, "t.json", _shift2_plus("1/4", "0"))
    code, data = run_cli(["growth", "--input", inp, "--powers", powers], tmp_path)
    assert code == 0
    assert [(r["m"], r["dim_ker"], r["dim_coker"]) for r in json.loads(data)["rows"]] == rows


#: S* - aI: index 1 and coker 0, with a kernel (a^k) that decays slowly
#: for a near 1
def _shift_minus(a):
    return {
        "diagonals": [
            {"offset": 1, "period": [["1", "0"]]},
            {"offset": 0, "period": [[f"-{a}", "0"]]},
        ],
    }


def test_growth_of_a_slowly_decaying_kernel_is_index_multiplicative(tmp_path):
    inp = write(tmp_path, "t.json", _shift_minus("1/2"))
    code, data = run_cli(["growth", "--input", inp, "--powers", "9:14"], tmp_path)
    assert code == 0
    rows = json.loads(data)["rows"]
    assert [(r["m"], r["dim_ker"], r["dim_coker"]) for r in rows] == [
        (m, m, 0) for m in range(9, 15)
    ]


@pytest.mark.parametrize(
    "a, windows",
    [
        ("1/2", [("_factor_section", 64), ("_factor_section", 128)]),
        # ker T's vector (3/4)^k is still 1e-6 on the 64 window's guard
        # band, so 64 finds no kernel, 128's nullity disagrees, and ker T
        # is accepted at 128; ker T^3 on need 256
        (
            "3/4",
            [
                ("_factor_section", 64),
                ("_section_nullity", 128),
                ("_factor_section", 128),
                ("_factor_section", 256),
            ],
        ),
    ],
    ids=["1/2", "3/4"],
)
def test_tower_of_a_slowly_decaying_kernel_grows_by_one_per_power(tmp_path, monkeypatch, a, windows):
    reads = _count_section_reads(monkeypatch)
    inp = write(tmp_path, "t.json", _shift_minus(a))
    code, data = run_cli(["tower", "--input", inp, "--max-level", "12"], tmp_path)
    assert code == 0
    rep = json.loads(data)
    assert (rep["kernel_dims"], rep["dims"]) == (list(range(1, 13)), [1] * 12)
    # the walk's section SVDs, in order, by kind and window
    assert [(helper, N) for helper, _, N in reads] == windows


def test_growth_refuses_rows_that_break_index_multiplicativity(tmp_path, capsys, monkeypatch):
    # a chain that drops one vector of ker T^11 makes row m = 11 certify
    # index 10; that row must not exit 0
    import koszulkit.ell2 as ell2

    real, dropped = ell2._chain_kernel, []

    def dropping(T, prev, bound, factor):
        sub = real(T, prev, bound, factor)
        if sub.dim != 11 or dropped:
            return sub
        dropped.append(sub)
        return ell2.StabilizedSubspace(sub.basis[:, :-1], sub.dim - 1, sub.window)

    monkeypatch.setattr(ell2, "_chain_kernel", dropping)
    inp = write(tmp_path, "t.json", _shift_minus("1/2"))
    code, data = run_cli(["growth", "--input", inp, "--powers", "9:14"], tmp_path)
    assert (code, data) == (3, b"")
    assert capsys.readouterr().err.strip() == (
        "error[NotStabilized]: growth row m = 11 certifies index 10, but index "
        "multiplicativity gives m * index T = 11"
    )


#: sha256 of the stdout of ``tower --max-level 12`` on S*^2 + (i/4)I, taken
#: when chain steps stopped factoring the blocks already below their
#: tolerance (the projection of K off ran B and the guard rows): the layer
#: bases turned inside each 2-dim layer, and every A_n kept its singular
#: values, both 15/16
TOWER_DIGEST = "99ffa800011b16035b53b2ad8e81eda5d7cf147536fff24e1cb1c6ce7aa42b4f"


def _count_section_reads(monkeypatch):
    """Record (helper, operator, N) for every full (``_factor_section``)
    and values-only (``_section_nullity``) section SVD."""
    import koszulkit.ell2 as ell2

    reads = []
    for name in ("_factor_section", "_section_nullity"):

        def counted(T, N, real=getattr(ell2, name), name=name):
            reads.append((name, T, N))
            return real(T, N)

        monkeypatch.setattr(ell2, name, counted)
    return reads


def test_tower_takes_no_doubled_window_once_the_bound_is_reached(tmp_path, capsys, monkeypatch):
    reads = _count_section_reads(monkeypatch)
    inp = write(tmp_path, "t.json", _shift2_plus("0", "1/4"))
    assert main(["tower", "--input", inp, "--max-level", "12"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["kernel_dims"] == list(range(2, 25, 2))
    assert hashlib.sha256(out.encode()).hexdigest() == TOWER_DIGEST
    # ker T (bounded by 2) factored at 64; the index comes from the winding,
    # so no section of T* is read; the chain from ker T on reuses the 64
    # factorization and factors 128 once, none at 256
    assert [(helper, N) for helper, _, N in reads] == [
        ("_factor_section", 64), ("_factor_section", 128)
    ]
    # the spans behind the bytes: T maps each layer onto the one below as
    # 15/16 = 1 - |i/4|^2 times an isometry
    monkeypatch.undo()
    tw = kernel_tower(operator_from_json(_shift2_plus("0", "1/4")), 12)
    for lv in tw.levels[1:]:
        assert np.allclose(np.linalg.svd(lv.a_block, compute_uv=False), 15 / 16, rtol=0, atol=1e-12)


def _shift_cubed_minus_half():
    """S*^3 - I/2: its symbol's three zeros have modulus 2^(-1/3), so its
    index is 3, but the sections undercount ker T (ROADMAP defect 1)."""
    return {
        "diagonals": [
            {"offset": 3, "period": [["1", "0"]]},
            {"offset": 0, "period": [["-1/2", "0"]]},
        ],
    }


@pytest.mark.parametrize("command", ["tower", "obstruct"])
def test_an_undercounted_tower_of_positive_index_is_not_stabilized(tmp_path, capsys, command):
    # the index 3 comes from the winding, so the undercount is exit 3, not a
    # false "index > 0" precondition verdict (exit 4)
    op = _shift_cubed_minus_half()
    obj = op if command == "tower" else {"operator": op, "perturbation": ASH}
    inp = write(tmp_path, "t.json", obj)
    assert main([command, "--input", inp, "--max-level", "8"]) == 3
    assert capsys.readouterr().err.strip() == (
        "error[NotStabilized]: layer 1 has dimension 0, below the index 3; window too small"
    )


@pytest.mark.parametrize(
    "op, index", [(_shift_minus("9/10"), 1), (_shift_cubed_minus_half(), 3)], ids=["S* - 9I/10", "S*^3 - I/2"]
)
def test_growth_of_an_undercounted_kernel_breaks_index_multiplicativity(tmp_path, capsys, op, index):
    # the index comes from the winding, as the tower's does, so the
    # sections' undercount of ker T is exit 3, not a false "needs a nonzero
    # index" (exit 4) from the undercounted section index 0
    inp = write(tmp_path, "t.json", op)
    assert main(["growth", "--input", inp, "--powers", "1:3"]) == 3
    assert capsys.readouterr().err.strip() == (
        "error[NotStabilized]: growth row m = 1 certifies index 0, but index "
        f"multiplicativity gives m * index T = {index}"
    )


@pytest.mark.parametrize("a", ["9/10", "19/20"])
def test_the_catalog_towers_of_s_star_minus_a_near_the_circle_are_not_stabilized(
    tmp_path, capsys, a
):
    inp = write(tmp_path, "t.json", _shift_minus(a))
    assert main(["tower", "--input", inp, "--max-level", "12"]) == 3
    assert capsys.readouterr().err.strip() == (
        "error[NotStabilized]: layer 1 has dimension 0, below the index 1; window too small"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", "--max-level", "12"],
        ["growth", "--powers", "9,2,5"],
        ["demo", "theorem-2.1"],
        ["demo", "theorem-1.1"],
    ],
    ids=["tower", "growth", "theorem-2.1", "theorem-1.1"],
)
def test_a_command_factors_each_section_once(tmp_path, capsys, monkeypatch, argv):
    # each command walks ker T (and growth ker T* too) once up to its
    # highest power, so no window is factored twice; growth asks its walks
    # for a lower power after a higher one
    inputs = {"tower": _shift2_plus("0", "1/4"), "growth": _shift_minus("1/2")}
    if argv[0] in inputs:
        argv = argv + ["--input", write(tmp_path, "t.json", inputs[argv[0]])]
    reads = _count_section_reads(monkeypatch)
    assert main(argv) == 0
    factored = [(T, N) for helper, T, N in reads if helper == "_factor_section"]
    assert factored and len(set(factored)) == len(factored)
    if argv[0] == "growth":
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert main(argv[:2] + ["2,5,9"] + argv[3:]) == 0
        by_m = {r["m"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        assert [r["m"] for r in rows] == [9, 2, 5]
        assert rows == [by_m[m] for m in (9, 2, 5)]


def test_main_builds_no_parser_after_the_first_call(tmp_path, monkeypatch):
    inp = write(tmp_path, "t.json", TUPLE_N0)
    assert run_cli(["cohomology", "--input", inp], tmp_path, "warm.json")[0] == 0
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli(["cohomology", "--input", inp], tmp_path, "again.json")[0] == 0
    assert built == []


def test_one_process_carries_no_state_between_calls(tmp_path, capsys):
    ash = write(tmp_path, "a.json", ASH)
    # a non-default --max-level does not stick
    assert main(["tower", "--input", ash, "--max-level", "3"]) == 3
    capsys.readouterr()
    assert main(["tower", "--input", ash]) == 0
    assert len(json.loads(capsys.readouterr().out)["levels"]) == 12
    # nor does --format csv
    assert main(["growth", "--input", ash, "--powers", "1:3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("m,dim_ker")
    assert main(["growth", "--input", ash, "--powers", "1:3"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "growth"
    # a usage error leaves the next call as a fresh process would run it
    with pytest.raises(SystemExit) as exc:
        main(["index", "--input", ash, "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["index", "--input", ash]) == 0
    fresh = fresh_process(["index", "--input", ash])
    assert fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout


def test_growth_csv_header(tmp_path):
    ash = write(tmp_path, "a.json", ASH)
    _, data = run_cli(
        ["growth", "--input", ash, "--powers", "1:3", "--format", "csv"],
        tmp_path,
        "g.csv",
    )
    lines = data.decode().splitlines()
    assert lines[0] == "m,dim_ker,dim_coker,index,exceeds"
    assert lines[1] == "1,1,0,1,false"


def test_demo_commands_run_and_validate(tmp_path, schema):
    start = time.time()
    code1, d1 = run_cli(["demo", "theorem-1.1"], tmp_path, "d1.json")
    code2, d2 = run_cli(["demo", "theorem-2.1"], tmp_path, "d2.json")
    elapsed = time.time() - start
    assert code1 == 0 and code2 == 0
    assert elapsed < 60.0
    rep1 = json.loads(d1)
    assert rep1["rows"][4]["m"] == 5 and rep1["rows"][4]["exceeds"] is True
    assert all(not r["exceeds"] for r in rep1["rows"][:4])
    rep2 = json.loads(d2)
    by_name = {c["name"]: c for c in rep2["cases"]}
    assert by_name["2I+T"]["verdict"] == "obstructed"
    assert by_name["T"]["verdict"] == "inconclusive"
    assert by_name["0"]["verdict"] == "inconclusive"
    jsonschema.validate(rep1, schema)
    jsonschema.validate(rep2, schema)


def test_demo_reports_clamp_rounding_noise_to_zero(tmp_path):
    # the K = T case of theorem-2.1 is exactly zero; its computed X and r
    # carry LAPACK rounding noise that must not reach the report
    code, data = run_cli(["demo", "theorem-2.1"], tmp_path, "d.json")
    case = {c["name"]: c for c in json.loads(data)["cases"]}["T"]
    assert code == 0 and case["r"] == 0.0
    assert all(e == [0.0, 0.0] for lv in case["levels"] for e in lv["X"]["entries"])
    assert b"-0.0" not in data


_report_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.complex_numbers(),
    st.text(),
    st.text().map(np.str_),
    st.floats().map(np.float64),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
)
# the parts of matrix entries: any float, subnormals and infinities
# included, the floor's neighbours, and 13-digit binary fractions that sit
# exactly on a 12-digit rounding tie
_entry_parts = st.floats() | st.sampled_from(
    [
        -0.0,
        5e-324,
        2.2e-308,
        REPORT_FLOAT_FLOOR,
        -REPORT_FLOAT_FLOOR,
        float(np.nextafter(REPORT_FLOAT_FLOOR, 0)),
        float(np.nextafter(REPORT_FLOAT_FLOOR, 1)),
        1234567890.125,
        -1234567890.375,
        123456789012.5,
    ]
)


@st.composite
def _matrix_literals(draw):
    """A literal as ``mat_from_numpy_json`` writes it, of a real or a
    complex array, or with numpy complex entries; now and then one entry
    is some other leaf, which makes it an ordinary dict."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    parts = st.lists(_entry_parts, min_size=rows * cols, max_size=rows * cols)
    A = np.reshape(draw(parts), (rows, cols)).astype(float)
    if draw(st.booleans()):
        A = A.astype(complex)
        A.imag = np.reshape(draw(parts), (rows, cols))
    literal = mat_from_numpy_json(A)
    if draw(st.booleans()):
        literal["entries"] = list(A.ravel().astype(complex))  # np.complex128 entries
    if literal["entries"] and draw(st.integers(0, 4)) == 0:
        literal["entries"][draw(st.integers(0, len(literal["entries"]) - 1))] = draw(_report_leaves)
    return literal


_reports = st.recursive(
    _report_leaves | _matrix_literals(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.lists(_matrix_literals(), max_size=3),
    max_leaves=24,
)


def _rounded(x):
    """A report with the documented rounding applied, as plain JSON values."""
    if isinstance(x, complex):
        return [_rounded(x.real), _rounded(x.imag)]
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_rounded(v) for v in x]
    if isinstance(x, (float, np.floating)):
        return 0.0 if abs(x) < REPORT_FLOAT_FLOOR else float(f"{float(x):.12g}")
    return x.item() if isinstance(x, np.generic) else x


@settings(max_examples=100, deadline=None)
@given(_reports)
def test_report_json_is_the_json_module_text_of_the_rounded_report(report):
    text = json.dumps(_rounded(report), sort_keys=True, indent=2) + "\n"
    assert report_to_json_bytes(report) == text.encode("utf-8")


@pytest.mark.parametrize(
    "entries",
    [
        [1 / 3 + 2j, -0.0 + 1e-300j, 123456789.123456789 - 1j],
        [1 + 0j, complex(float("nan"), 1), complex(0, float("-inf"))],
    ],
    ids=["finite", "non-finite"],
)
def test_matrix_literal_entries_are_the_json_module_text(entries):
    # the entries of a matrix literal, finite or not, are the json module's text
    report = {"A": mat_from_numpy_json(np.array([entries]))}
    assert isinstance(report["A"]["entries"][0], complex)
    text = json.dumps(_rounded(report), sort_keys=True, indent=2) + "\n"
    assert report_to_json_bytes(report) == text.encode("utf-8")


def test_demo_byte_stability(tmp_path):
    _, a = run_cli(["demo", "theorem-1.1"], tmp_path, "a.json")
    _, b = run_cli(["demo", "theorem-1.1"], tmp_path, "b.json")
    assert a == b


def fresh_process(args):
    """Run the CLI in a new interpreter, as a shell user would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "koszulkit.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=os.environ | {"PYTHONPATH": path},
    )


def test_console_entry_point(tmp_path):
    proc = fresh_process(["demo", "theorem-1.1", "--format", "csv"])
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "m,dim_ker,dim_coker,index,exceeds"


def test_tuple_round_trip(rng):
    from randgen import random_commuting_tuple

    T = random_commuting_tuple(rng, 3, 2)
    again = tuple_from_json(tuple_to_json(T))
    assert again.matrices == T.matrices and again.mode == T.mode


def test_polymap_round_trip():
    from koszulkit.polymap import Polynomial, PolyMap

    f = PolyMap.from_components(
        [
            Polynomial.from_terms(2, [((1, 0), 1), ((0, 2), -3)]),
            Polynomial.from_terms(2, [((1, 1), 2)]),
        ]
    )
    again = polymap_from_json(polymap_to_json(f))
    assert again == f


def test_operator_bandwidth_validation():
    with pytest.raises(Exception):
        operator_from_json(
            {"bandwidth": 0, "diagonals": [{"offset": 2, "period": [["1", "0"]]}]}
        )


def test_les_checks_each_pair_once(tmp_path, monkeypatch):
    import koszulkit.koszul as kz
    from randgen import get_rng, random_commuting_tuple

    inp = write(tmp_path, "t.json", tuple_to_json(random_commuting_tuple(get_rng(3), 3, 4)))
    calls = []
    real = kz.commutator
    monkeypatch.setattr(kz, "commutator", lambda A, B: calls.append(1) or real(A, B))
    code, _ = run_cli(["les", "--input", inp], tmp_path)
    assert code == 0
    assert len(calls) == 6


def test_les_rejects_noncommuting_augmentation(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", NONCOMMUTING)
    assert main(["les", "--input", bad]) == 2
    assert "error[NonCommuting]: operators 0 and 1" in capsys.readouterr().err


FLOAT_N0 = {
    "mode": "float",
    "matrices": [
        {"rows": 2, "cols": 2, "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]},
        {"rows": 2, "cols": 2, "entries": [[0, 0], [0, 0], [0, 0], [0, 0]]},
    ],
}


@pytest.mark.parametrize("command", ["cohomology", "les"])
def test_tol_rank_is_read_only_for_float_tuples(tmp_path, capsys, command):
    exact = write(tmp_path, "t.json", TUPLE_N0)
    assert main([command, "--input", exact, "--tol-rank", "1e-9"]) == 2
    assert "error[FormatError]" in capsys.readouterr().err
    floats = write(tmp_path, "f.json", FLOAT_N0)
    code, data = run_cli([command, "--input", floats, "--tol-rank", "1e-9"], tmp_path)
    assert code == 0
    assert json.loads(data)["index"] == 0


def _float_diag(*values):
    d = len(values)
    entries = [[v if i == j else 0, 0] for i in range(d) for j, v in enumerate(values)]
    return {"rows": d, "cols": d, "entries": entries}


@pytest.mark.parametrize("tol", ["nan", "2", "inf", "0", "-1", "1"])
def test_tol_rank_outside_the_unit_interval_is_refused(tmp_path, capsys, tol):
    inp = write(tmp_path, "f.json", {"mode": "float", "matrices": [_float_diag(1, 2)]})
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--input", inp, "--tol-rank", tol])
    assert exc.value.code == 2
    assert "argument --tol-rank" in capsys.readouterr().err


def test_float_les_exits_3_when_its_two_computations_disagree(tmp_path, capsys):
    # 1.2e-10 clears the rank tolerance relative to T alone, not relative
    # to the stacked [T; S], so the direct and spliced dimensions differ
    mats = [_float_diag(1, 1.2e-10), _float_diag(1, 0)]
    inp = write(tmp_path, "f.json", {"mode": "float", "matrices": mats})
    assert main(["les", "--input", inp]) == 3
    err = capsys.readouterr().err
    assert "error[NotStabilized]" in err and "[1, 2, 1]" in err and "[0, 0, 0]" in err


def test_float_cohomology_exits_3_on_a_negative_dimension(tmp_path, capsys):
    # (A, A^2 + eps E, A/2 + eps F), eps = 1e-12, commutes within the
    # tolerance; at tol_rank 1e-15 the middle differential's singular
    # values near 8e-14 of its largest count, and the outer ones' do not
    A = np.array([[2.0, 1.0], [1.0, -1.0]])
    E, F = np.array([[1.0, -1.0], [0.0, 1.0]]), np.diag([1.0, -1.0])
    mats = [Mat.from_numpy(M) for M in (A, A @ A + 1e-12 * E, A / 2 + 1e-12 * F)]
    inp = write(tmp_path, "f.json", tuple_to_json(validate_tuple(mats)))
    assert main(["cohomology", "--input", inp, "--tol-rank", "1e-15"]) == 3
    err = capsys.readouterr().err
    assert "error[NotStabilized]" in err and "negative dimension in [0, -2, -2, 0]" in err


def test_float_les_refuses_an_operator_that_moves_the_cohomology_representatives(tmp_path, capsys):
    # [diag(0, 1), S] has norm 5e-11, within TOL_COMM, so (diag(0, 1), S)
    # is a tuple; S e_0 leaves ker diag(0, 1) by 5e-11, which the solve of
    # the induced action refuses at tol_rank 1e-15 (residual bound 1e-12)
    # and accepts at the default (1e-7)
    S = np.array([[1.0, 0.0], [5e-11, 2.0]])
    mats = [Mat.from_numpy(np.diag([0.0, 1.0])), Mat.from_numpy(S)]
    inp = write(tmp_path, "f.json", tuple_to_json(validate_tuple(mats)))
    assert main(["les", "--input", inp]) == 0
    capsys.readouterr()
    assert main(["les", "--input", inp, "--tol-rank", "1e-15"]) == 2
    assert capsys.readouterr().err == (
        "error[NonCommuting]: induced action did not preserve the cohomology "
        "representatives; operator fails to commute within tolerance\n"
    )


def _with_first_entry(entry):
    obj = json.loads(json.dumps(TUPLE_N0))
    obj["matrices"][0]["entries"][0] = entry
    return obj


@pytest.mark.parametrize(
    "command, obj",
    [
        ("cohomology", _with_first_entry(["1/x", "0"])),
        ("cohomology", _with_first_entry([float("nan"), "0"])),
        ("cohomology", _with_first_entry(["0", True])),
        # True == 1, so a parse memo keyed on values would let it through
        ("cohomology", {"matrices": [{"rows": 2, "cols": 2, "entries": [["1", "0"], [1, "0"], "1", [True, "0"]]}]}),
        ("index", {"diagonals": [{"offset": 1, "period": [["3/0", "0"]]}]}),
    ],
    ids=["non-rational", "nan", "bool", "bool-after-ones", "zero-denominator"],
)
def test_malformed_exact_scalars_are_format_errors(tmp_path, capsys, command, obj):
    assert main([command, "--input", write(tmp_path, "in.json", obj)]) == 2
    assert "error[FormatError]" in capsys.readouterr().err


def _with_first_matrix(**fields):
    obj = json.loads(json.dumps(TUPLE_N0))
    obj["matrices"][0].update(fields)
    return obj


#: a literal whose shape, -1 x -1, has as many entries (1) as it declares
_NEGATIVE_SHAPE = {"rows": -1, "cols": -1, "entries": [["1", "0"]]}
_BAD_TUPLES = {
    "rows-not-int": _with_first_matrix(rows="x"),
    "shape-negative": {"mode": "exact", "matrices": [_NEGATIVE_SHAPE]},
    "shape-negative-float": {"mode": "float", "matrices": [_NEGATIVE_SHAPE | {"entries": [[1.0, 0.0]]}]},
    "shape-fractional": {"mode": "exact", "matrices": [_NEGATIVE_SHAPE | {"rows": 1.5, "cols": 1.9}]},
    "shape-quoted": {"mode": "exact", "matrices": [_NEGATIVE_SHAPE | {"rows": "1", "cols": "1"}]},
    # True == 1, so the shape check compares types too
    "shape-bool": {"mode": "exact", "matrices": [_NEGATIVE_SHAPE | {"rows": True, "cols": True}]},
    "entries-not-list": _with_first_matrix(entries=5),
    "tuple-top-level-list": [TUPLE_N0],
    # float entries must be finite: json writes nan and inf as NaN and Infinity
    "float-nan": {"mode": "float", "matrices": [_float_diag(float("nan"), 1), _float_diag(1, 1)]},
    "float-infinity": {"mode": "float", "matrices": [_float_diag(float("inf"), 1), _float_diag(1, 1)]},
    "float-minus-inf-string": {"mode": "float", "matrices": [_float_diag("-inf", 1), _float_diag(1, 1)]},
    # float parts are plain numbers: no booleans, no numbers written as strings
    "float-bool": {"mode": "float", "matrices": [_float_diag(True, 1), _float_diag(1, 1)]},
    "float-number-string": {"mode": "float", "matrices": [_float_diag("1e5", 1), _float_diag(1, 1)]},
    # AB - BA = 1e160 e0 e1*: the norm of A must not overflow into the tolerance
    "float-huge-noncommuting": {
        "mode": "float",
        "matrices": [_float_diag(1e160, 0), FLOAT_N0["matrices"][0]],
    },
    # AB - BA = 1e200 e0 e1*: |1e200|^2 is past the float range, not the norm
    "exact-huge-noncommuting": {
        "mode": "exact",
        "matrices": [
            {"rows": 2, "cols": 2, "entries": [["1e200", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]},
            TUPLE_N0["matrices"][0],
        ],
    },
}
_BAD_OPERATORS = {
    "operator-top-level-list": [ASH],
    "diagonals-not-list": {"diagonals": 5},
    "prefix-not-list": {"diagonals": [{"offset": 1, "prefix": 5, "period": [["1", "0"]]}]},
    "bandwidth-not-int": ASH | {"bandwidth": "x"},
    "patch-shape-negative": ASH | {"patch": _NEGATIVE_SHAPE},
}
_BAD_MAPS = {
    "map-polynomial-not-list": [5],
    "map-monomial-not-int": [[{"coeff": ["1", "0"], "monomial": ["x"]}]],
}
GROWTH = {"demo": "growth", "operator": ASH, "powers": [1, 2, 3], "rank_bound": 4}
OBSTRUCTION = {
    "demo": "obstruction",
    "operator": ASH,
    "max_level": 6,
    "perturbations": [{"name": "T", "operator": ASH}],
}
_BAD_SCENARIOS = {
    "scenario-top-level-list": [OBSTRUCTION],
    "perturbations-not-list": OBSTRUCTION | {"perturbations": 5},
    "perturbation-not-object": OBSTRUCTION | {"perturbations": [5]},
    "max-level-not-int": OBSTRUCTION | {"max_level": "x"},
    "rank-bound-not-int": GROWTH | {"rank_bound": "x"},
    "power-not-int": GROWTH | {"powers": [1, "x"]},
    "powers-empty": GROWTH | {"powers": []},
    "power-negative": GROWTH | {"powers": [1, -1]},
    "scenario-without-operator": {"demo": "growth"},
    "scenario-unknown-kind": GROWTH | {"demo": "spiral"},
}


_MALFORMED = {
    **{
        f"{cmd}-{name}": (cmd, obj, None)
        for name, obj in _BAD_TUPLES.items()
        for cmd in ("cohomology", "les", "spectrum")
    },
    **{f"index-{name}": ("index", obj, None) for name, obj in _BAD_OPERATORS.items()},
    **{f"spectrum-{name}": ("spectrum", TUPLE_N0, obj) for name, obj in _BAD_MAPS.items()},
    **{f"demo-{name}": ("demo theorem-2.1", obj, None) for name, obj in _BAD_SCENARIOS.items()},
    "spectrum-map-float-nan": (
        "spectrum",
        {"mode": "float", "matrices": [_float_diag(1, 2)]},
        [[{"coeff": [float("nan"), 0.0], "monomial": [1]}]],
    ),
    "obstruct-top-level-number": ("obstruct", 5, None),
    "obstruct-top-level-string": ("obstruct", "operator perturbation", None),
    "obstruct-without-perturbation": ("obstruct", {"operator": ASH}, None),
    "les-one-matrix": ("les", TUPLE_N0 | {"matrices": TUPLE_N0["matrices"][:1]}, None),
}


@pytest.mark.parametrize("scenario", [GROWTH, OBSTRUCTION], ids=["growth", "obstruction"])
def test_well_formed_demo_scenarios_run(tmp_path, scenario):
    code, data = run_cli(["demo", "custom", "--input", write(tmp_path, "s.json", scenario)], tmp_path)
    assert code == 0
    assert json.loads(data)["demo"] == "custom"


def test_a_scenario_without_a_depth_or_rank_bound_takes_the_defaults(tmp_path):
    growth = {k: v for k, v in GROWTH.items() if k != "rank_bound"}
    code, data = run_cli(["demo", "custom", "--input", write(tmp_path, "g.json", growth)], tmp_path)
    assert code == 0 and json.loads(data)["rank_bound"] == 4
    obstruction = {k: v for k, v in OBSTRUCTION.items() if k != "max_level"}
    code, data = run_cli(["demo", "custom", "--input", write(tmp_path, "o.json", obstruction)], tmp_path)
    assert code == 0 and len(json.loads(data)["cases"][0]["dims"]) == 12


#: the cases that parse but fail the tuple's own check, with their error
_NOT_FORMAT_ERRORS = {
    f"{cmd}-{mode}-huge-noncommuting": "NonCommuting"
    for cmd in ("cohomology", "les", "spectrum")
    for mode in ("float", "exact")
}


@pytest.mark.parametrize(
    "command, inp, pmap, error",
    [(*case, _NOT_FORMAT_ERRORS.get(name, "FormatError")) for name, case in _MALFORMED.items()],
    ids=_MALFORMED.keys(),
)
def test_malformed_input_files_are_format_errors(tmp_path, capsys, command, inp, pmap, error):
    argv = [*command.split(), "--input", write(tmp_path, "in.json", inp)]
    if pmap is not None:
        argv += ["--map", write(tmp_path, "map.json", pmap)]
    assert main(argv) == 2
    assert f"error[{error}]" in capsys.readouterr().err


def test_a_float_tuple_with_a_subnormal_largest_entry_commutes(tmp_path, capsys):
    # AB - BA = 1e-315 e0 e1*, far below TOL_COMM: its norm is scaled by a
    # power of two, as dividing by the subnormal 1e-315 gives NaN
    import warnings

    B = {"rows": 2, "cols": 2, "entries": [[0, 0], [1e-315, 0], [0, 0], [0, 0]]}
    inp = write(tmp_path, "t.json", {"mode": "float", "matrices": [_float_diag(1, 0), B]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cohomology", "--input", inp]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 2, 1]


def test_a_map_whose_first_component_is_zero_takes_its_variables_from_the_next(tmp_path, capsys):
    # (0, z_1) is (z_1, 0) with its components swapped, so its points are
    # the points of (z_1, 0) with their coordinates swapped
    x = {"coeff": ["1", "0"], "monomial": [1, 0]}
    diag = {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "0"], ["0", "0"], ["2", "0"]]}
    inp = write(tmp_path, "t.json", {"mode": "exact", "matrices": [diag, TUPLE_N0["matrices"][1]]})
    points = []
    for pmap in ([[], [x]], [[x], []]):
        assert main(["spectrum", "--input", inp, "--map", write(tmp_path, "map.json", pmap)]) == 0
        points.append([p["point"] for p in json.loads(capsys.readouterr().out)["points"]])
    assert points[0] == [pt[::-1] for pt in points[1]]
    assert points[1] == [[[1.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]]


def _literal(*entries):
    return {"rows": 1, "cols": len(entries), "entries": list(entries)}


#: (call, message) of each jsonio format check that the file tables above leave out
_JSONIO_REFUSALS = {
    "scalar-three-parts": (lambda: mat_from_json(_literal(["1", "0", "0"])), "scalar entry must be [re, im]"),
    "float-part-none": (lambda: mat_from_json(_literal([None, 0.0]), "float"), "bad float scalar [None, 0.0]"),
    "entry-count": (lambda: mat_from_json(_literal(["1", "0"]) | {"cols": 2}), "has 1 entries for 1x2"),
    "unknown-mode": (lambda: matrices_from_json({"mode": "decimal", "matrices": []}), "unknown mode 'decimal'"),
    "no-matrices": (lambda: matrices_from_json({"mode": "exact", "matrices": []}), "tuple file has no matrices"),
    "map-not-list": (lambda: polymap_from_json({"coeff": ["1", "0"]}), "nonempty list of polynomials"),
    "map-empty": (lambda: polymap_from_json([]), "nonempty list of polynomials"),
    "report-format": (lambda: emit_report({}, "xml"), "unknown report format 'xml'"),
}


@pytest.mark.parametrize("call, message", _JSONIO_REFUSALS.values(), ids=_JSONIO_REFUSALS)
def test_jsonio_refuses_malformed_objects(call, message):
    with pytest.raises(errors.FormatError, match=re.escape(message)):
        call()


def test_a_polynomial_without_terms_is_zero():
    f = polymap_from_json([[], [{"coeff": ["2", "0"], "monomial": [1]}]])
    assert f.eval_point((GaussianRational(3),)) == (0, 6)


# T1 upper triangular with eigenvalues 1, 2 and T2 = T1^2: joint spectrum
# {(1, 1), (2, 4)}; under f(z1, z2) = (z1 + z2, z1 z2) it is {(2, 1), (6, 8)}
TRIANGULAR = {
    "mode": "exact",
    "matrices": [
        {"rows": 2, "cols": 2, "entries": [["1", "0"], ["1", "0"], ["0", "0"], ["2", "0"]]},
        {"rows": 2, "cols": 2, "entries": [["1", "0"], ["3", "0"], ["0", "0"], ["4", "0"]]},
    ],
}
SUM_AND_PRODUCT = [
    [{"coeff": ["1", "0"], "monomial": [1, 0]}, {"coeff": ["1", "0"], "monomial": [0, 1]}],
    [{"coeff": ["1", "0"], "monomial": [1, 1]}],
]


@pytest.mark.parametrize(
    "pmap, expected",
    [(None, [[1, 1], [2, 4]]), (SUM_AND_PRODUCT, [[2, 1], [6, 8]])],
    ids=["tuple", "mapped"],
)
def test_spectrum_reports_the_joint_eigenvalues(tmp_path, schema, pmap, expected):
    argv = ["spectrum", "--input", write(tmp_path, "t.json", TRIANGULAR)]
    if pmap is not None:
        argv += ["--map", write(tmp_path, "map.json", pmap)]
    code, data = run_cli(argv, tmp_path)
    assert code == 0
    rep = json.loads(data)
    jsonschema.validate(rep, schema)
    assert rep["mode"] == "exact" and rep["dimension"] == 2
    points = sorted([[re for re, im in p["point"]] for p in rep["points"]])
    assert points == expected
    assert all(im == 0.0 for p in rep["points"] for _, im in p["point"])
    assert [p["multiplicity"] for p in rep["points"]] == [1, 1]


@pytest.mark.parametrize(
    "argv, first_rows",
    [
        (["index", "--input", "ash.json"], ["certified,true", "command,index"]),
        (["demo", "theorem-2.1"], ["cases.0.dims.0,1"]),
    ],
    ids=["index", "demo-theorem-2.1"],
)
def test_csv_of_a_report_without_rows_is_sorted_key_value(tmp_path, argv, first_rows):
    argv = [write(tmp_path, "ash.json", ASH) if a == "ash.json" else a for a in argv]
    _, first = run_cli(argv + ["--format", "csv"], tmp_path, "r1.csv")
    _, second = run_cli(argv + ["--format", "csv"], tmp_path, "r2.csv")
    assert first == second
    lines = first.decode().splitlines()
    assert lines[0] == "key,value"
    assert lines[1 : 1 + len(first_rows)] == first_rows
    keys = [line.split(",", 1)[0] for line in lines[1:]]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_unreadable_inputs_and_unknown_demos_are_format_errors(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    for argv in [
        ["index", "--input", str(tmp_path / "missing.json")],
        ["index", "--input", str(garbled)],
        ["demo", "no-such-demo"],
    ]:
        assert main(argv) == 2, argv
        assert "error[FormatError]" in capsys.readouterr().err


#: sha256 of the stdout of each demo; a change that alters a demo report
#: updates its digest here and says why
DEMO_DIGESTS = {
    ("theorem-1.1", "json"): "4ddd171ab98ea15aed608991106aa945ef3429be74f666dcb7caacb7cac4246e",
    ("theorem-1.1", "csv"): "35f63f7082cb447c7ae6ed2fc5bea4acc43e81d55e1dd4f9004c9046c1d53961",
    ("theorem-2.1", "json"): "5c4c47a623bfe95d224e1baac5ec1663117e5fda4508b8a517722af3eba18240",
    ("theorem-2.1", "csv"): "7c6fbeae317c5752a49c0fb2f4030aaa8b456d7aab03c50c08e00cc949b4feba",
}


@pytest.mark.parametrize("demo, fmt", DEMO_DIGESTS, ids=["-".join(k) for k in DEMO_DIGESTS])
def test_demo_stdout_is_pinned(capsys, demo, fmt):
    assert main(["demo", demo, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[demo, fmt]


def _jordan(d, lam):
    return Mat.from_rows([[lam if j == i else int(j == i + 1) for j in range(d)] for i in range(d)])


def _diag(*vals):
    return Mat.from_rows([[v if j == i else 0 for j in range(len(vals))] for i, v in enumerate(vals)])


def _conjugated_tuple(seed, *mats):
    """P M P^-1 for each M, with one seeded unimodular P."""
    d = mats[0].rows
    P = random_unimodular(get_rng(seed), d)
    Pinv = solve(P, Mat.identity(d))
    return tuple_to_json(validate_tuple([P @ M @ Pinv for M in mats]))


_THIRD, _I = GaussianRational("1/3"), GaussianRational(0, 1)

#: spectrum inputs: repeated eigenvalues, complex eigenvalues, and 6-dim
#: and 3-dim Jordan blocks at 1/3, whose float eigenvalues spread by up to
#: about 3e-3 around it
SPECTRUM_CORPUS = {
    "repeated": lambda: _conjugated_tuple(
        3, _diag("1/2", "1/2", -3, -3, 2), _diag(0, 1, 0, 0, 5)
    ),
    "complex": lambda: _conjugated_tuple(
        5, _diag(_I, _I, GaussianRational(1, "-2/3"), -1), _diag(1, 2, 1, 0)
    ),
    "jordan-6": lambda: _conjugated_tuple(2, _jordan(6, _THIRD), _jordan(6, _THIRD) @ _jordan(6, _THIRD)),
    "defect-2": lambda: _conjugated_tuple(1, _jordan(3, _THIRD), _jordan(3, _THIRD) @ _jordan(3, _THIRD)),
}

#: (exit code, sha256 of stdout) of ``spectrum`` and of ``spectrum --map``
#: with SUM_AND_PRODUCT on each input; a change that alters a spectrum
#: report updates its digest here and says why
SPECTRUM_DIGESTS = {
    ("repeated", False): (0, "4b5192fb6fd0e3f47e2e06018122ce17ac4ed0b19569055698826ed688a133ba"),
    ("repeated", True): (0, "6dc7ac0689622b486c8da323c8b6ae2c0db5b6a2c478b11f10f8f375d4c6894d"),
    ("complex", False): (0, "b1188423c9faea440196d62648e5d3b140c75ee31743d2834052df0b4a246950"),
    ("complex", True): (0, "c8f5163d21fd934f68c97d8131d35287933ecea427657ecb1ceeb6d8738ed94e"),
    ("jordan-6", False): (0, "d0ed355eebea6cee7f516009acee6422b047c47dc3b36c1629cfa09fa1e3aa25"),
    ("jordan-6", True): (0, "c453801316ef1eafc5fba0299aabbceb4d0ba5e0de3dff684b0134d336f02bae"),
    ("defect-2", False): (0, "793f81b4acedafe4e09a591ec934389e4c767febd75eda9c36de3a782d9ce387"),
    ("defect-2", True): (0, "30694ffdb57386935fa7be7ad6d0dadffbaa28a581a0360feffba2146171b6f5"),
}


@pytest.mark.parametrize(
    "name, mapped", SPECTRUM_DIGESTS, ids=[f"{n}-map" if m else n for n, m in SPECTRUM_DIGESTS]
)
def test_spectrum_stdout_is_pinned(tmp_path, capsys, name, mapped):
    argv = ["spectrum", "--input", write(tmp_path, "t.json", SPECTRUM_CORPUS[name]())]
    if mapped:
        argv += ["--map", write(tmp_path, "map.json", SUM_AND_PRODUCT)]
    code = main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    assert (code, hashlib.sha256(out).hexdigest()) == SPECTRUM_DIGESTS[name, mapped]


def _ill_conditioned_unimodular(d):
    """U U* for U = I + 3N, N the shift: determinant 1, condition number
    about 1e2 at d = 2 and 1e6 at d = 6."""
    U = Mat.from_rows([[1 if j == i else 3 * int(j == i + 1) for j in range(d)] for i in range(d)])
    return U @ U.adjoint()


@pytest.mark.parametrize("mapped", [False, True], ids=["tuple", "mapped"])
@pytest.mark.parametrize("d", range(2, 7))
def test_a_conjugated_jordan_block_is_one_point(tmp_path, capsys, d, mapped):
    # P J P^-1 with J the Jordan block at 1/3 and an ill-conditioned P, whose
    # float eigenvalues spread widely around 1/3: one point of multiplicity d
    P = _ill_conditioned_unimodular(d)
    Pinv = solve(P, Mat.identity(d))
    J = _jordan(d, _THIRD)
    argv = ["spectrum", "--input", write(tmp_path, "t.json", tuple_to_json(validate_tuple([P @ J @ Pinv, P @ J @ J @ Pinv])))]
    point = [1 / 3, 1 / 9]
    if mapped:
        argv += ["--map", write(tmp_path, "map.json", SUM_AND_PRODUCT)]
        point = [4 / 9, 1 / 27]
    assert main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [p["multiplicity"] for p in rep["points"]] == [d]
    assert [re for re, _ in rep["points"][0]["point"]] == pytest.approx(point, abs=1e-12)


def _spectrum_of(tmp_path, capsys, *mats):
    code = main(["spectrum", "--input", write(tmp_path, "t.json", tuple_to_json(validate_tuple(mats)))])
    out, err = capsys.readouterr()
    return code, json.loads(out) if code == 0 else err


def test_an_irrational_eigenvalue_exits_3(tmp_path, capsys):
    # eigenvalues +-sqrt(2): the characteristic polynomial z^2 - 2 has no root in Z[i]
    code, err = _spectrum_of(tmp_path, capsys, Mat.from_rows([[0, 1], [2, 0]]))
    assert code == 3
    assert "error[DeflationFailure]" in err and "cover 0 of 2" in err


def test_a_float_eigenvalue_cluster_with_too_small_an_eigenspace_exits_3(tmp_path, capsys):
    # 1 and 1 + 1e-9 form one cluster, but A - I = diag(0, 1e-9) has rank
    # 1 relative to its own norm: the cluster's eigenspace has dimension 1
    code, err = _spectrum_of(tmp_path, capsys, Mat.from_numpy(np.diag([1.0, 1.0 + 1e-9])))
    assert code == 3
    assert "error[DeflationFailure]" in err and "covered 1 of 2" in err


def test_an_eigenvalue_needs_no_denominator_cap(tmp_path, capsys):
    # a denominator above 10^6: det(zI - LA), L = 10^6 + 3, has the roots
    # 1 and 2L
    code, rep = _spectrum_of(tmp_path, capsys, _diag(GaussianRational.from_ints(1, 0, 10**6 + 3), 2))
    assert code == 0
    points = [(p["point"][0][0], p["multiplicity"]) for p in rep["points"]]
    assert points == [(pytest.approx(1 / (10**6 + 3), rel=1e-11), 1), (2.0, 1)]


_TINY = (GaussianRational.from_ints(1, 0, 10**200 + 7), GaussianRational.from_ints(1, 0, 10**199 + 3))


def test_characteristic_coefficients_beyond_the_float_range_exit_3(tmp_path, capsys):
    # L = (10^200 + 7)(10^199 + 3) makes the coefficients of det(zI - LA)
    # about 10^400, too large for a float: exit 3, not an OverflowError.
    # P diag P^-1 has no zero entry, so it is one block, whose
    # characteristic polynomial carries those coefficients
    P = Mat.from_rows([[1, 1], [1, 2]])
    code, err = _spectrum_of(tmp_path, capsys, P @ _diag(*_TINY) @ solve(P, Mat.identity(2)))
    assert code == 3
    assert "error[DeflationFailure]" in err and "cover 0 of 2" in err


def test_a_diagonal_beyond_the_float_range_of_its_whole_characteristic_polynomial(tmp_path, capsys):
    # each 1 x 1 block of the diagonal is its own eigenvalue: no polynomial
    code, rep = _spectrum_of(tmp_path, capsys, _diag(*_TINY))
    assert code == 0
    points = [(p["point"][0][0], p["multiplicity"]) for p in rep["points"]]
    assert points == [(pytest.approx(1 / (10**200 + 7), rel=1e-11), 1), (pytest.approx(1 / (10**199 + 3), rel=1e-11), 1)]


FLOAT_N0 = TUPLE_N0 | {
    "mode": "float",
    "matrices": [m | {"entries": [[float(re), float(im)] for re, im in m["entries"]]} for m in TUPLE_N0["matrices"]],
}

#: the input of each pinned report below
_PINNED_INPUTS = {
    "exact": lambda: TUPLE_N0,
    "float": lambda: FLOAT_N0,
    "ash": lambda: ASH,
    "complex": SPECTRUM_CORPUS["complex"],
    "triangular": lambda: TRIANGULAR,
}

#: sha256 of the stdout of ``command --input <input> --format <format>``,
#: for the reports the cli builds from result objects; a change that alters
#: one of these reports updates its digest here and says why
REPORT_DIGESTS = {
    ("cohomology", "exact", "json"): "b1789a88ea6bab21408a524edfc56934cdb0d5f5a567ae36e1355e34c0fa6c1c",
    ("cohomology", "exact", "csv"): "39ac162bf5e1ecc47e8074cf37e3c29eba04a338b194a281ef28ba86563998a2",
    ("cohomology", "float", "json"): "d0e7a3f247c80bacb7c4c556dc96307f4cd8d890fd79f0526e647f141ce428d9",
    ("cohomology", "float", "csv"): "e5411fd422f963f180f20155b5ed1b39026462995bf3c76953a3d2483d9b9d3d",
    ("les", "exact", "json"): "1163b99fe0dd5cab2ff927ae0a213f46e618b552be73b49583b0709d35709210",
    ("les", "exact", "csv"): "436407ad39b72e234ac64939987a0127bc9447bc27465f488cec8378e433af81",
    ("les", "float", "json"): "1163b99fe0dd5cab2ff927ae0a213f46e618b552be73b49583b0709d35709210",
    ("les", "float", "csv"): "436407ad39b72e234ac64939987a0127bc9447bc27465f488cec8378e433af81",
    ("growth --powers 1:4 --rank-bound 2", "ash", "json"): "209f3d6968d40e8a1582d5a8ea9c41956c7044ea5c18f4e2c2e72fb95706b428",
    ("growth --powers 1:4 --rank-bound 2", "ash", "csv"): "bc3eec05165071af73a35f34c9fa0f25d6bed6d153c26713cd8df4f94879e203",
    ("spectrum", "complex", "csv"): "4c2818efbbb790c6ba4afba00360f8e3f44c10d98f7e3ee2f05bf49f3c06d46d",
    ("spectrum", "triangular", "csv"): "46347a1c27a65c0d2fd6d4d3a9ba7620c6d4be7f375a0b3c9c8320659bdb52a2",
}


@pytest.mark.parametrize(
    "command, inp, fmt", REPORT_DIGESTS, ids=[f"{c.split()[0]}-{i}-{f}" for c, i, f in REPORT_DIGESTS]
)
def test_report_stdout_is_pinned(tmp_path, capsys, command, inp, fmt):
    path = write(tmp_path, "in.json", _PINNED_INPUTS[inp]())
    assert main([*command.split(), "--input", path, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == REPORT_DIGESTS[command, inp, fmt]


def _ash_plus(c):
    """S* + c I as an operator file."""
    return {"diagonals": [*ASH["diagonals"], {"offset": 0, "period": [[c, "0"]]}]}


#: sha256 of the stdout of ``obstruct --max-level 8 --format <format>`` on
#: T = S* with K = S* + c I, for c = 2 and c = -1/2; their layers are
#: one-dimensional, so no SVD picks a basis rotation.  A change that alters
#: one of these reports updates its digest here and says why
OBSTRUCT_DIGESTS = {
    ("2", "json"): "eb6e5ddce66aafbeb8862a3efa7b28499b971acb29ce590f484c7e5eb3a22e8d",
    ("2", "csv"): "718fc02c4b201ee5e03dce253b5a7a65df67ab6c233370717ecbd238ff2cd617",
    ("-1/2", "json"): "75bdf34e05ca984e9e47d32839a688e83e86bc62e36066d2935f9ffeafa05abe",
    ("-1/2", "csv"): "29e1e301509b28be848b5bb3e6ba021e43e86089a870df45c2fdbeaaf88cd85e",
}


@pytest.mark.parametrize("c, fmt", OBSTRUCT_DIGESTS, ids=[f"{c}-{f}" for c, f in OBSTRUCT_DIGESTS])
def test_obstruct_stdout_is_pinned(tmp_path, capsys, c, fmt):
    path = write(tmp_path, "in.json", {"operator": ASH, "perturbation": _ash_plus(c)})
    assert main(["obstruct", "--input", path, "--max-level", "8", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == OBSTRUCT_DIGESTS[c, fmt]


#: a value other than the default of each flag in cli._COMMANDS, and the
#: input of each command that takes one
_FLAG_VALUES = {
    "--tol-rank": "1e-3",
    "--map": SUM_AND_PRODUCT,
    "--max-level": "6",
    "--powers": "1:3",
    "--rank-bound": "1",
}
_FLAG_INPUTS = {
    # diag(1, 1e-6) has rank 2 at the default tolerance and rank 1 at 1e-3
    "cohomology": {"mode": "float", "matrices": [_float_diag(1, 1e-6)]},
    "les": {"mode": "float", "matrices": [_float_diag(1, 1e-6), _float_diag(1, 1)]},
    "spectrum": TRIANGULAR,
    "tower": ASH,
    "obstruct": {"operator": ASH, "perturbation": _ash_plus("2")},
    "growth": ASH,
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, _, flags in cli._COMMANDS for f in flags])
def test_every_flag_a_command_takes_changes_its_report(tmp_path, capsys, command, flag):
    """A flag that a command accepts but whose value it never reads is dead."""
    argv = [command, "--input", write(tmp_path, "in.json", _FLAG_INPUTS[command])]
    value = _FLAG_VALUES[flag]
    if flag == "--map":
        value = write(tmp_path, "map.json", value)
    outs = []
    for extra in ([], [flag, value]):
        assert main([*argv, *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] != outs[1]


#: the exit code of each error class: 2 validation, 3 stability, 4 preconditions
EXIT_CODE_OF = {
    "KoszulKitError": 2,
    "ModeMismatch": 2,
    "ShapeError": 2,
    "NonCommuting": 2,
    "DegreeError": 2,
    "FormatError": 2,
    "DeflationFailure": 3,
    "NotStabilized": 3,
    "InvarianceViolation": 3,
    "PreconditionError": 4,
    "IndexSignError": 4,
    "IndexZeroError": 4,
}
ERROR_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, errors.KoszulKitError)]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_an_error_raised_by_a_command_exits_with_its_code(tmp_path, capsys, monkeypatch, error):
    def raising(op):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "fredholm_index_banded", raising)
    assert main(["index", "--input", write(tmp_path, "a.json", ASH)]) == EXIT_CODE_OF[error.__name__]
    out, err = capsys.readouterr()
    assert out == "" and err == f"error[{error.__name__}]: raised on purpose\n"
