"""Command-line front end.

Commands: cohomology, spectrum, les, index, tower, obstruct, growth,
demo.  Input files use the JSON formats from jsonio; reports go to
stdout or --out, as JSON (default) or CSV.  Exit codes: 0 success,
2 validation errors (non-commuting input, shape/format problems, flags
the command does not read), 3 stabilization failures (windows too
small, symbol too close to singular, deflation failures),
4 violated mathematical preconditions (operator not Fredholm, wrong
index sign, zero index, non-invertible pair).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources

from . import jsonio
from .errors import (
    DeflationFailure,
    DegreeError,
    FormatError,
    InvarianceViolation,
    KoszulKitError,
    ModeMismatch,
    NonCommuting,
    NotStabilized,
    PreconditionError,
    ShapeError,
)
from .ell2 import fredholm_index_banded
from .koszul import augment_les, cohomology, validate_tuple
from .scalars import EXACT
from .spectrum import apply_poly_map, joint_spectrum
from .tower import growth_table, kernel_tower, obstruction_certificate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_STABILIZED = 3
EXIT_PRECONDITION = 4

_VALIDATION = (NonCommuting, ShapeError, ModeMismatch, FormatError, DegreeError)
_STABILITY = (NotStabilized, DeflationFailure, InvarianceViolation)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _parse_powers(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        powers = tuple(range(int(lo), int(hi) + 1))
    else:
        powers = tuple(int(p) for p in text.split(",") if p)
    if not powers or min(powers) < 0:
        raise argparse.ArgumentTypeError(f"{text!r}: need one or more powers m >= 0")
    return powers


def _parse_rank_bound(text: str) -> int:
    bound = int(text)
    if bound < 0:
        raise argparse.ArgumentTypeError(f"{text!r}: need a rank bound >= 0")
    return bound


def _parse_tol_rank(text: str) -> float:
    tol = float(text)
    if not 0 < tol < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: need a rank tolerance 0 < tol < 1")
    return tol


def _complex_pair(z: complex):
    return [float(z.real), float(z.imag)]


# -- command implementations ----------------------------------------------


def _tol_rank(args: argparse.Namespace, mode: str):
    """--tol-rank, refused for exact tuples: exact rank has no tolerance."""
    if args.tol_rank is not None and mode == EXACT:
        raise FormatError("--tol-rank is read only for float tuples")
    return args.tol_rank


def _cmd_cohomology(args: argparse.Namespace) -> dict:
    T = jsonio.tuple_from_json(_load_json(args.input))
    rep = cohomology(T, _tol_rank(args, T.mode))
    return {
        "command": "cohomology",
        "dims": list(rep.dims),
        "index": rep.index,
        "invertible": rep.invertible,
        # every finite-dimensional tuple is Fredholm; the schema keeps the key
        "fredholm": True,
        "mode": T.mode,
    }


def _cmd_spectrum(args: argparse.Namespace) -> dict:
    T = jsonio.tuple_from_json(_load_json(args.input))
    if args.map is not None:
        f = jsonio.polymap_from_json(_load_json(args.map), T.mode)
        T = apply_poly_map(f, T)
    sigma = joint_spectrum(T)
    return {
        "command": "spectrum",
        "mode": T.mode,
        "dimension": sigma.dimension,
        "points": [
            {
                "point": [_complex_pair(z) for z in p.as_complex()],
                "multiplicity": p.multiplicity,
            }
            for p in sigma.points
        ],
    }


def _cmd_les(args: argparse.Namespace) -> dict:
    mats = jsonio.matrices_from_json(_load_json(args.input))
    if len(mats) < 2:
        raise FormatError("les needs at least two matrices (last one augments)")
    tol_rank = _tol_rank(args, mats[0].mode)
    rep = augment_les(validate_tuple(mats[:-1]), mats[-1], tol_rank)
    return {
        "command": "les",
        "dims_direct": list(rep.dims_direct),
        "dims_sequence": list(rep.dims_sequence),
        "agree": rep.agree,
        "index": rep.index,
        "base_dims": list(rep.base_dims),
        "iso_by_degree": list(rep.iso_by_degree),
        "all_iso": rep.all_iso,
    }


def _cmd_index(args: argparse.Namespace) -> dict:
    op = jsonio.operator_from_json(_load_json(args.input))
    cert = fredholm_index_banded(op)
    return {
        "command": "index",
        "index": cert.index,
        "dim_ker": cert.dim_ker,
        "dim_coker": cert.dim_coker,
        # fredholm_index_banded raises unless both kernels stabilized
        "certified": True,
        "window": {"N": cert.ker.window.N, "G": cert.ker.window.G},
    }


def _cmd_tower(args: argparse.Namespace) -> dict:
    op = jsonio.operator_from_json(_load_json(args.input))
    tw = kernel_tower(op, args.max_level)
    return {
        "command": "tower",
        "dims": list(tw.layer_dims()),
        "kernel_dims": list(tw.kernel_dims),
        "n0": tw.n0,
        "index": tw.index.index,
        "levels": [
            {"n": lv.n, "dim": lv.dim}
            | ({"A": jsonio.mat_from_numpy_json(lv.a_block)} if lv.a_block is not None else {})
            for lv in tw.levels
        ],
    }


def _obstruct_case(tw, K) -> dict:
    cert = obstruction_certificate(tw, K)
    return {
        "dims": list(cert.layer_dims),
        "n0": cert.n0,
        "r": cert.r,
        "norms": [cert.norms[n] for n in range(1, cert.levels_checked + 1)],
        "verdict": cert.verdict,
        "levels": [
            {
                "n": lv.n,
                "dim": lv.dim,
                "X": jsonio.mat_from_numpy_json(cert.blocks.level(lv.n).x_block),
            }
            | ({"A": jsonio.mat_from_numpy_json(lv.a_block)} if lv.a_block is not None else {})
            for lv in tw.levels
        ],
    }


def _cmd_obstruct(args: argparse.Namespace) -> dict:
    obj = jsonio._expect(_load_json(args.input), dict, "obstruct input")
    if "operator" not in obj or "perturbation" not in obj:
        raise FormatError(
            "obstruct input needs {'operator': ..., 'perturbation': ...}"
        )
    T = jsonio.operator_from_json(obj["operator"])
    K = jsonio.operator_from_json(obj["perturbation"])
    tw = kernel_tower(T, args.max_level)
    return {"command": "obstruct"} | _obstruct_case(tw, K)


def _growth_rows(table) -> dict:
    return {
        "rank_bound": table.rank_bound,
        "base_index": table.base_index,
        "rows": [
            {
                "m": r.m,
                "dim_ker": r.dim_ker,
                "dim_coker": r.dim_coker,
                "index": r.index,
                "exceeds": r.exceeds,
            }
            for r in table.rows
        ],
    }


def _cmd_growth(args: argparse.Namespace) -> dict:
    op = jsonio.operator_from_json(_load_json(args.input))
    table = growth_table(op, args.powers, args.rank_bound)
    return {"command": "growth"} | _growth_rows(table)


def _load_scenario(name: str, override: str | None):
    if override is not None:
        return _load_json(override)
    res = resources.files("koszulkit").joinpath(f"scenarios/{name}.json")
    if not res.is_file():
        raise FormatError(f"unknown demo {name!r}")
    return json.loads(res.read_text(encoding="utf-8"))


def _cmd_demo(args: argparse.Namespace) -> dict:
    scenario = jsonio.scenario_from_json(_load_scenario(args.name, args.input))
    T = scenario["operator"]
    head = {
        "command": "demo",
        "demo": args.name,
        "description": scenario.get("description", ""),
    }
    if scenario["demo"] == "growth":
        powers = scenario.get("powers", tuple(range(1, 11)))
        bound = scenario.get("rank_bound", args.rank_bound)
        return head | _growth_rows(growth_table(T, powers, bound))
    tw = kernel_tower(T, scenario.get("max_level", args.max_level))
    cases = [{"name": name} | _obstruct_case(tw, K) for name, K in scenario["perturbations"]]
    return head | {"pair_note": scenario.get("pair_note", ""), "cases": cases}


# -- driver ---------------------------------------------------------------


#: flags read by some but not all commands; every command also takes
#: --input, --format and --out
_FLAGS = {
    "--tol-rank": {"type": _parse_tol_rank},
    "--map": {"help": "polynomial map JSON to apply first"},
    "--max-level": {"type": int, "default": 12},
    "--powers": {"type": _parse_powers, "default": tuple(range(1, 11)), "help": "a:b range or comma list"},
    "--rank-bound": {"type": _parse_rank_bound, "default": 4},
}

_COMMANDS = (
    ("cohomology", _cmd_cohomology, ("--tol-rank",)),
    ("spectrum", _cmd_spectrum, ("--map",)),
    ("les", _cmd_les, ("--tol-rank",)),
    ("index", _cmd_index, ()),
    ("tower", _cmd_tower, ("--max-level",)),
    ("obstruct", _cmd_obstruct, ("--max-level",)),
    ("growth", _cmd_growth, ("--powers", "--rank-bound")),
    ("demo", _cmd_demo, ("--max-level", "--rank-bound")),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and reused by every
    ``main`` call: each ``parse_args`` returns a fresh Namespace, and a
    usage error exits without changing the parser."""
    p = argparse.ArgumentParser(
        prog="koszulkit",
        description="Koszul cohomology, joint spectra, certified shift-algebra "
        "computations and perturbation obstruction certificates.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, run, flags in _COMMANDS:
        sp = sub.add_parser(name)
        sp.set_defaults(run=run)
        if name == "demo":
            sp.add_argument("name", help="demo scenario name (theorem-1.1, theorem-2.1)")
            sp.add_argument("--input", help="optional scenario override file")
        else:
            sp.add_argument("--input", required=True, help="input JSON file")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", help="write the report here instead of stdout")
    return p


def main(argv=None) -> int:
    """Run one command; in-process callers share ``build_parser()``'s
    parser, so only the first call in a process builds it."""
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
    except _VALIDATION as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _STABILITY as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NOT_STABILIZED
    except PreconditionError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except KoszulKitError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    data = jsonio.emit_report(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
