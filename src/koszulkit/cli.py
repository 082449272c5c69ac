"""Command-line front end.

Commands: cohomology, spectrum, les, index, tower, obstruct, growth,
demo.  Input files use the JSON formats from jsonio; reports go to
stdout or --out, as JSON (default) or CSV.  Exit codes, from the
table _EXIT_CODES: 0 success, 3 stabilization failures (windows too
small, symbol too close to singular, deflation failures, invariance
violations), 4 violated mathematical preconditions (operator not
Fredholm, wrong index sign, zero index, non-invertible pair), and 2
every other error: validation errors (non-commuting input, shape,
format, mode or degree problems) and, from argparse, flags the command
does not read.
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
    FormatError,
    InvarianceViolation,
    KoszulKitError,
    NotStabilized,
    PreconditionError,
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

#: (error classes, exit code), the first row that matches wins
_EXIT_CODES = (
    ((NotStabilized, DeflationFailure, InvarianceViolation), EXIT_NOT_STABILIZED),
    (PreconditionError, EXIT_PRECONDITION),
    (KoszulKitError, EXIT_VALIDATION),
)


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


# -- command implementations ----------------------------------------------


def _tol_rank(args: argparse.Namespace, mode: str):
    """--tol-rank, refused for exact tuples: exact rank has no tolerance."""
    if args.tol_rank is not None and mode == EXACT:
        raise FormatError("--tol-rank is read only for float tuples")
    return args.tol_rank


def _cmd_cohomology(args: argparse.Namespace) -> dict:
    T = jsonio.tuple_from_json(_load_json(args.input))
    rep = cohomology(T, _tol_rank(args, T.mode))
    # every finite-dimensional tuple is Fredholm; the schema keeps the key
    return {"command": "cohomology", "fredholm": True, "mode": T.mode} | vars(rep)


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
        "points": [{"point": p.as_complex(), "multiplicity": p.multiplicity} for p in sigma.points],
    }


def _cmd_les(args: argparse.Namespace) -> dict:
    mats = jsonio.matrices_from_json(_load_json(args.input))
    if len(mats) < 2:
        raise FormatError("les needs at least two matrices (last one augments)")
    tol_rank = _tol_rank(args, mats[0].mode)
    rep = augment_les(validate_tuple(mats[:-1]), mats[-1], tol_rank)
    return {"command": "les"} | {k: v for k, v in vars(rep).items() if k != "induced_ranks"}


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
        "index": tw.index,
        "levels": _level_rows(tw),
    }


def _level_rows(tw, blocks=None) -> list:
    """One report row per tower level: n, dim, its A block when it has one,
    and its X block in a certificate's ``blocks``."""
    as_json = jsonio.mat_from_numpy_json
    return [
        {"n": lv.n, "dim": lv.dim}
        | ({"A": as_json(lv.a_block)} if lv.a_block is not None else {})
        | ({"X": as_json(blocks.level(lv.n).x_block)} if blocks is not None else {})
        for lv in tw.levels
    ]


def _obstruct_case(tw, K) -> dict:
    cert = obstruction_certificate(tw, K)
    return {
        "dims": list(tw.layer_dims()),
        "n0": tw.n0,
        "r": cert.r,
        "norms": list(cert.norms.values()),
        "verdict": cert.verdict,
        "levels": _level_rows(tw, cert.blocks),
    }


def _cmd_obstruct(args: argparse.Namespace) -> dict:
    T, K = jsonio.pair_from_json(_load_json(args.input))
    tw = kernel_tower(T, args.max_level)
    return {"command": "obstruct"} | _obstruct_case(tw, K)


def _growth_rows(table) -> dict:
    return vars(table) | {"rows": [vars(r) for r in table.rows]}


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
        powers = scenario.get("powers", _FLAGS["--powers"]["default"])
        bound = scenario.get("rank_bound", _FLAGS["--rank-bound"]["default"])
        return head | _growth_rows(growth_table(T, powers, bound))
    tw = kernel_tower(T, scenario.get("max_level", _FLAGS["--max-level"]["default"]))
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
    ("demo", _cmd_demo, ()),
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
    except KoszulKitError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))
    data = jsonio.emit_report(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
