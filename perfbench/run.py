"""koszulkit benchmark: oracle-checked CLI workloads, timed and traced.

    python3 perfbench/run.py --workload koszul_les --seed 1 --seconds 20 --trace 0

Each operation goes in-process, one at a time, through
``koszulkit.cli.main(argv)`` on JSON inputs written during set-up.  One
untimed warm-up pass checks every report against its oracle and records
its bytes; timed passes then repeat the same operations until
``--seconds`` have passed (and the tail percentile has ten samples
beyond it), requiring byte-identical reports.  With ``--trace 0`` the
last line carries the end-to-end metrics, timed against a reference
loop (see REFERENCE_S); with ``--trace 1`` untraced and traced passes
alternate and the last line carries the per-layer metrics of one traced
pass, in plain seconds.  Lines before it are a human-readable account:
environment, digests, outcomes, raw timings and every metric with its
unit.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

import os

# pinned before numpy loads: a 2-core machine should measure the program,
# not the BLAS thread scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"

#: how many times input generation runs during set-up; setup_s takes the median
SETUP_REPEATS = 3

#: tail percentile per workload.  It is fixed, so that it does not move
#: with speed, and it falls inside a group of operations of like cost:
#: 85 in fredholm_catalog is the middle of the four small towers, and 75
#: in obstruction_demos lies within the theorem-2.1 runs
TAIL_PCT = {
    "koszul_les": 90,
    "joint_spectrum": 90,
    "fredholm_catalog": 85,
    "obstruction_demos": 75,
}

#: a timed run makes at least enough passes to have this many samples
#: beyond the tail percentile
TAIL_SAMPLES = 10

#: a run stops starting passes after this long, whatever --seconds says
HARD_STOP_S = 120.0

#: End-to-end times are scaled to a machine on which the reference loop
#: takes this long.  On a shared 2-core VM the speed drifts by a third over
#: tens of seconds, and everything the program does drifts with it.  The
#: reference loop is timed after set-up and around every pass, and the
#: times are scaled by it; for one workload with the same inputs, over four
#: runs, that cut the spread of the summed operation times from 8 % to 1 %.
#: The raw figures are printed too.
REFERENCE_S = 0.02

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: spans whose call count and self time are per-layer metrics
SPANS = (
    "linalg.rank", "linalg.kernel_basis", "linalg.solve", "linalg.column_space_basis",
    "linalg.matmul", "koszul.complex", "koszul.cohomology", "koszul.induced_map",
    "spectrum.joint_spectrum", "polymap.eval_matrices", "ell2.banded_mul",
    "ell2.kernel_of_power", "ell2.fredholm_index", "numpy.svd", "tower.kernel_tower",
    "tower.commutant_blocks", "tower.obstruction_certificate", "tower.growth_table",
    "cli.main",
)

#: per-layer metrics: name -> unit
PER_LAYER = {f"{span}.{field}": unit for span in SPANS for field, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({
    "linalg.rank.cells": "count",
    "numpy.svd.cells": "count",
    "scalars.mul.calls": "count",
    "scalars.div.calls": "count",
    "koszul.augment_les.calls": "count",
    "koszul.complex.builds_per_tuple": "count/tuple",
    "spectrum.deflation_failures": "count",
    "ell2.kernel_of_power.window_doublings": "count",
    "tower.kernel_tower.calls_per_operator": "count/case",
    "jsonio.parse.self_s": "s",
    "jsonio.emit.self_s": "s",
    "jsonio.emit.bytes": "B",
    "fail_ratio": "ratio",
    "wrong_ratio": "ratio",
    "undecided_ratio": "ratio",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
})


class Runner:
    """Runs one workload's operations through the CLI entry point."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.reference = []  # (status, report bytes) from the warm-up pass
        self.drift = 0

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(op.argv))
        elapsed = time.perf_counter() - start
        return rc, f"exit {rc}\n{out.getvalue()}".encode(), elapsed

    def warm_up(self):
        digest = hashlib.sha256()
        for op in self.ops:
            rc, data, _ = self.call(op)
            status = workloads.classify(op, rc, data.split(b"\n", 1)[1])
            self.reference.append((status, data))
            digest.update(data)
        return digest.hexdigest()

    def timed_pass(self, tracer=None):
        """[(status, seconds)] for one pass; a report whose bytes differ
        from the warm-up's is drift and counts as an error."""
        out = []
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = k
            rc, data, elapsed = self.call(op)
            status, ref = self.reference[k]
            if data != ref:
                self.drift += 1
                status = "error"
            out.append((status, elapsed))
        return out

    def unexpected(self):
        """Operations whose outcome is neither right, nor undecided, nor a
        known defect of the program."""
        return [
            (op.argv, status)
            for op, (status, _) in zip(self.ops, self.reference)
            if status not in ("ok", "undecided") and status not in op.known
        ]


def _import_program():
    import numpy  # noqa: F401

    import koszulkit
    import koszulkit.cli

    src = (ROOT / "src").resolve()
    if src not in Path(koszulkit.__file__).resolve().parents:
        raise ImportError(f"koszulkit imported from {koszulkit.__file__}, not from {src}")
    return koszulkit.cli


def _blas_warm_up():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    np.linalg.svd(a)
    np.linalg.svd(a[:64, :48], compute_uv=False)
    np.linalg.eigvals(a[:16, :16])


def _environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "koszulkit").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_koszulkit_lines": src_lines,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _setup(workload, seed, workdir):
    """Imports, BLAS warm-up, then SETUP_REPEATS input generations; the
    one-off costs plus the median generation time make setup_s."""
    start = time.perf_counter()
    cli = _import_program()
    _blas_warm_up()
    one_off = time.perf_counter() - start
    gens = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"inputs-{k}"
        target.mkdir(parents=True)
        t = time.perf_counter()
        ops = workloads.BUILDERS[workload](seed, target)
        gens.append(time.perf_counter() - t)
    return cli, ops, one_off + statistics.median(gens)


def _run_passes(seconds, min_passes, step):
    """Call step() until both ``seconds`` and ``min_passes`` are reached."""
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        step()
        passes += 1
        if time.perf_counter() - start > HARD_STOP_S:
            break
    return time.perf_counter() - start


def _reference_loop():
    """Fixed Fraction arithmetic, like the program's exact hot path."""
    x, s = Fraction(1, 3), Fraction(0)
    for i in range(1, 3000):
        s += x * Fraction(i, i + 1)
    return s


def _reference_s(reps=3):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def _outcomes(statuses):
    n = len(statuses)
    counts = {s: statuses.count(s) for s in ("ok", "wrong", "undecided", "error")}
    return n, counts, {
        "fail_ratio": (n - counts["ok"]) / n,
        "wrong_ratio": counts["wrong"] / n,
        "undecided_ratio": counts["undecided"] / n,
    }


def measure(runner, workload, seconds):
    """End-to-end metrics over complete timed passes, each pass scaled by
    the reference loop timed just before and after it.

    Each operation's time is its median over the passes.  ops_per_s
    divides the correct operations of one pass by the sum of those
    medians, op_p50_ms is their median; op_tail_ms is taken over every
    sample, so that ten of them lie beyond it.
    """
    pct = TAIL_PCT[workload]
    min_passes = math.ceil(TAIL_SAMPLES / ((1 - pct / 100) * len(runner.ops)))
    passes, scales = [], []

    def step():
        before = _reference_s()
        samples = runner.timed_pass()
        scales.append(REFERENCE_S / ((before + _reference_s()) / 2))
        passes.append(samples)

    wall = _run_passes(seconds, min_passes, step)
    statuses = [s for p in passes for s, _ in p]
    n, counts, ratios = _outcomes(statuses)

    def timings(scaled):
        runs = [[t * (f if scaled else 1.0) for _, t in p] for p, f in zip(passes, scales)]
        times = sorted(t for run in runs for t in run)
        per_op = [statistics.median(run[k] for run in runs) for k in range(len(runner.ops))]
        return {
            "ops_per_s": counts["ok"] / len(passes) / sum(per_op),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_tail_ms": 1000 * _nearest_rank(times, pct),
        }, times

    metrics, times = timings(scaled=True)
    metrics["ok_ratio"] = counts["ok"] / n
    raw, _ = timings(scaled=False)
    info = {
        "tail_percentile": pct,
        "samples": n,
        "samples_beyond_tail": sum(1 for t in times if t > metrics["op_tail_ms"] / 1000),
        "passes": len(passes),
        "timed_wall_s": wall,
        "reference_scale_median": statistics.median(scales),
        "raw_unscaled": ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        "outcomes": counts,
    } | ratios
    return statuses, metrics, info


def measure_traced(runner, seconds):
    """Alternate untraced and traced passes.  The wrappers are in place
    only during traced passes; per-layer numbers are those of the first
    traced pass, pass walls are medians."""
    plain, traced = [], []
    first = {}

    def step():
        t = time.perf_counter()
        runner.timed_pass()
        plain.append(time.perf_counter() - t)
        tracer = Tracer()
        tracer.install()
        try:
            t = time.perf_counter()
            statuses = [s for s, _ in runner.timed_pass(tracer)]
            traced.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        if not first:
            first.update(statuses=statuses, tracer=tracer)

    _run_passes(seconds, 1, step)
    tracer = first["tracer"]
    layers, counts = tracer.layer_totals(), tracer.counts
    metrics = {}
    for name, unit in PER_LAYER.items():
        base, _, field = name.rpartition(".")
        if field == "self_s":
            metrics[name] = layers.get(base, (0, 0.0))[1]
        else:
            metrics[name] = layers[base][0] if field == "calls" and base in layers else counts.get(name, 0)
    doublings = counts.get("ell2.sections", 0) - 2 * layers.get("ell2.kernel_of_power", (0,))[0]
    metrics["ell2.kernel_of_power.window_doublings"] = max(doublings, 0)
    tuples = sum(1 for op in runner.ops if op.kind == "cohomology")
    metrics["koszul.complex.builds_per_tuple"] = (
        layers.get("koszul.complex", (0,))[0] / tuples if tuples else 0.0
    )
    cases = sum(op.tower_cases for op in runner.ops)
    metrics["tower.kernel_tower.calls_per_operator"] = (
        layers.get("tower.kernel_tower", (0,))[0] / cases if cases else 0.0
    )
    _, _, ratios = _outcomes(first["statuses"])
    metrics.update(ratios)
    accounted = sum(self_s for _, self_s in layers.values())
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    metrics["trace.remainder_s"] = traced[0] - accounted
    shares = sorted(((s / traced[0], name) for name, (_, s) in layers.items()), reverse=True)
    info = {
        "traced_passes": len(traced),
        "spans": len(tracer.spans),
        "first_traced_pass_s": traced[0],
        "sum_of_self_times_s": accounted,
        "self_time_share": ", ".join(f"{name} {share:.1%}" for share, name in shares[:8]),
    }
    return first["statuses"], metrics, info, tracer.spans


def _print_block(title, mapping):
    print(f"== {title}")
    for key, value in mapping.items():
        print(f"  {key} = {value}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        try:
            cli, ops, setup_s = _setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import koszulkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        setup_scale = REFERENCE_S / _reference_s(5)
        runner = Runner(cli, ops)
        _print_block("environment", _environment(args.seed) | {"workload": args.workload})
        start = time.perf_counter()
        digest = runner.warm_up()
        warm_up_s = time.perf_counter() - start
        unexpected = runner.unexpected()
        known = sorted({
            op.known[status] for op, (status, _) in zip(ops, runner.reference)
            if status in op.known
        })
        _print_block("warm-up", {
            "operations": len(ops),
            "warm_up_pass_s": warm_up_s,
            "report_digest_sha256": digest,
            "known_defects_hit": known or "none",
            "unexpected_outcomes": unexpected or "none",
        })
        if args.trace:
            statuses, metrics, info, spans = measure_traced(runner, args.seconds)
            OUT_DIR.mkdir(exist_ok=True)
            span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(span_file, "w", encoding="utf-8") as fh:
                for name, start, end, parent, op in spans:
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
            info["span_file"] = str(span_file.relative_to(ROOT))
            units = PER_LAYER
        else:
            statuses, metrics, info = measure(runner, args.workload, args.seconds)
            metrics["setup_s"] = setup_s * setup_scale
            info["raw_setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
        info["drifted_reports"] = runner.drift
        _print_block("run", info)
        _print_block("metrics", {k: f"{metrics[k]} {u}" for k, u in units.items()})
        n, counts, _ = _outcomes(statuses)
        result = {
            "correct": not unexpected and runner.drift == 0,
            "attempted": n,
            "failed": n - counts["ok"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
