"""Command-line front end.

Commands: cohomology, spectrum, les, index, tower, obstruct, growth,
demo.  Input files use the JSON formats from jsonio; reports go to
stdout or --out, as JSON (default) or CSV.  Exit codes: 0 success,
2 validation errors (non-commuting input, shape/format problems),
3 stabilization failures (windows too small, deflation failures),
4 violated mathematical preconditions (wrong index sign, zero index,
non-invertible pair).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
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
from .ell2 import TruncationWindow, fredholm_index_banded
from .koszul import augment_les, cohomology
from .spectrum import apply_poly_map, joint_spectrum
from .tower import growth_table, kernel_tower, obstruction_certificate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_STABILIZED = 3
EXIT_PRECONDITION = 4

_VALIDATION = (NonCommuting, ShapeError, ModeMismatch, FormatError, DegreeError)
_STABILITY = (NotStabilized, DeflationFailure, InvarianceViolation)


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    demo: str | None = None
    tol_rank: float | None = None
    window: int | None = None
    guard: int | None = None
    max_level: int = 12
    powers: tuple = ()
    rank_bound: int = 4
    format: str = "json"
    out: str | None = None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _window(cfg: RunConfig):
    if cfg.window is None and cfg.guard is None:
        return None
    N = cfg.window if cfg.window is not None else 64
    G = cfg.guard if cfg.guard is not None else 16
    return TruncationWindow(N, G)


def _parse_powers(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(p) for p in text.split(",") if p)


def _complex_pair(z: complex):
    return [float(z.real), float(z.imag)]


# -- command implementations ----------------------------------------------


def _cmd_cohomology(cfg: RunConfig) -> dict:
    T = jsonio.tuple_from_json(_load_json(cfg.input))
    rep = cohomology(T, cfg.tol_rank)
    return {
        "command": "cohomology",
        "dims": list(rep.dims),
        "index": rep.index,
        "invertible": rep.invertible,
        "fredholm": rep.fredholm,
        "mode": T.mode,
    }


def _cmd_spectrum(cfg: RunConfig, map_path: str | None) -> dict:
    T = jsonio.tuple_from_json(_load_json(cfg.input))
    if map_path is not None:
        f = jsonio.polymap_from_json(_load_json(map_path), T.mode)
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


def _cmd_les(cfg: RunConfig) -> dict:
    obj = _load_json(cfg.input)
    T = jsonio.tuple_from_json(obj)
    if T.n < 2:
        raise FormatError("les needs at least two matrices (last one augments)")
    from .koszul import validate_tuple

    base = validate_tuple(T.matrices[:-1])
    S = T.matrices[-1]
    rep = augment_les(base, S, cfg.tol_rank)
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


def _cmd_index(cfg: RunConfig) -> dict:
    op = jsonio.operator_from_json(_load_json(cfg.input))
    cert = fredholm_index_banded(op, _window(cfg))
    return {
        "command": "index",
        "index": cert.index,
        "dim_ker": cert.dim_ker,
        "dim_coker": cert.dim_coker,
        "certified": cert.certified,
        "window": {"N": cert.ker.window.N, "G": cert.ker.window.G},
    }


def _cmd_tower(cfg: RunConfig) -> dict:
    op = jsonio.operator_from_json(_load_json(cfg.input))
    tw = kernel_tower(op, cfg.max_level, _window(cfg))
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


def _cmd_obstruct(cfg: RunConfig) -> dict:
    obj = _load_json(cfg.input)
    if "operator" not in obj or "perturbation" not in obj:
        raise FormatError(
            "obstruct input needs {'operator': ..., 'perturbation': ...}"
        )
    T = jsonio.operator_from_json(obj["operator"])
    K = jsonio.operator_from_json(obj["perturbation"])
    tw = kernel_tower(T, cfg.max_level, _window(cfg))
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


def _cmd_growth(cfg: RunConfig) -> dict:
    op = jsonio.operator_from_json(_load_json(cfg.input))
    powers = cfg.powers or tuple(range(1, 11))
    table = growth_table(op, powers, cfg.rank_bound, _window(cfg))
    return {"command": "growth"} | _growth_rows(table)


def _load_scenario(name: str, override: str | None):
    if override is not None:
        return _load_json(override)
    res = resources.files("koszulkit").joinpath(f"scenarios/{name}.json")
    if not res.is_file():
        raise FormatError(f"unknown demo {name!r}")
    return json.loads(res.read_text(encoding="utf-8"))


def _cmd_demo(cfg: RunConfig) -> dict:
    scenario = _load_scenario(cfg.demo, cfg.input)
    kind = scenario.get("demo")
    if kind == "growth":
        T = jsonio.operator_from_json(scenario["operator"])
        powers = tuple(scenario.get("powers", list(range(1, 11))))
        bound = int(scenario.get("rank_bound", cfg.rank_bound))
        table = growth_table(T, powers, bound, _window(cfg))
        return {
            "command": "demo",
            "demo": cfg.demo,
            "description": scenario.get("description", ""),
        } | _growth_rows(table)
    if kind == "obstruction":
        T = jsonio.operator_from_json(scenario["operator"])
        max_level = int(scenario.get("max_level", cfg.max_level))
        tw = kernel_tower(T, max_level, _window(cfg))
        cases = []
        for case in scenario.get("perturbations", []):
            K = jsonio.operator_from_json(case["operator"])
            cases.append({"name": case.get("name", "?")} | _obstruct_case(tw, K))
        pair = scenario.get("pair_note", "")
        return {
            "command": "demo",
            "demo": cfg.demo,
            "description": scenario.get("description", ""),
            "pair_note": pair,
            "cases": cases,
        }
    raise FormatError(f"scenario file has unknown demo kind {kind!r}")


# -- driver ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="koszulkit",
        description="Koszul cohomology, joint spectra, certified shift-algebra "
        "computations and perturbation obstruction certificates.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="input JSON file")
        else:
            sp.add_argument("--input", help="optional scenario override file")
        sp.add_argument("--tol-rank", type=float, dest="tol_rank")
        sp.add_argument("--window", type=int, help="section size N")
        sp.add_argument("--guard", type=int, help="guard band G")
        sp.add_argument("--max-level", type=int, dest="max_level", default=12)
        sp.add_argument("--powers", type=str, help="a:b range or comma list")
        sp.add_argument("--rank-bound", type=int, dest="rank_bound", default=4)
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", help="write the report here instead of stdout")

    for name in ("cohomology", "les", "index", "tower", "obstruct", "growth"):
        common(sub.add_parser(name))
    sp = sub.add_parser("spectrum")
    common(sp)
    sp.add_argument("--map", dest="map", help="polynomial map JSON to apply first")
    sp = sub.add_parser("demo")
    sp.add_argument("name", help="demo scenario name (theorem-1.1, theorem-2.1)")
    common(sp, needs_input=False)
    return p


def run(cfg: RunConfig, map_path: str | None = None) -> dict:
    if cfg.command == "cohomology":
        return _cmd_cohomology(cfg)
    if cfg.command == "spectrum":
        return _cmd_spectrum(cfg, map_path)
    if cfg.command == "les":
        return _cmd_les(cfg)
    if cfg.command == "index":
        return _cmd_index(cfg)
    if cfg.command == "tower":
        return _cmd_tower(cfg)
    if cfg.command == "obstruct":
        return _cmd_obstruct(cfg)
    if cfg.command == "growth":
        return _cmd_growth(cfg)
    if cfg.command == "demo":
        return _cmd_demo(cfg)
    raise FormatError(f"unknown command {cfg.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        input=args.input,
        demo=getattr(args, "name", None),
        tol_rank=args.tol_rank,
        window=args.window,
        guard=args.guard,
        max_level=args.max_level,
        powers=_parse_powers(args.powers) if args.powers else (),
        rank_bound=args.rank_bound,
        format=args.format,
        out=args.out,
    )
    try:
        report = run(cfg, map_path=getattr(args, "map", None))
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
    data = jsonio.emit_report(report, cfg.format, cfg.out)
    if cfg.out is None:
        sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
