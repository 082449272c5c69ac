"""Tests of the benchmark itself, on shrunken workloads of a tiny seed.

Run with ``python -m pytest perfbench``.  Each workload is cut to a few
operations, and one timed pass is enough, so that a run takes a second
or two; the code paths are those of a full run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _small_fredholm(seed, workdir):
    keep = ("toeplitz-0", "weighted-0", "patched-toeplitz-0", "shift-minus-9-10")
    return [
        op for op in workloads.build_fredholm_catalog(seed, workdir)
        if any(f"/{name}.json" in op.argv[2] for name in keep)
    ]


SMALL = {
    "koszul_les": lambda seed, wd: workloads.build_koszul_les(seed, wd, size=2),
    "joint_spectrum": lambda seed, wd: workloads.build_joint_spectrum(seed, wd, size=2),
    "fredholm_catalog": _small_fredholm,
    "obstruction_demos": lambda seed, wd: workloads.build_obstruction_demos(seed, wd)[:2],
}


@pytest.fixture
def small(monkeypatch):
    for name, build in SMALL.items():
        monkeypatch.setitem(workloads.BUILDERS, name, build)
        monkeypatch.setitem(run.TAIL_PCT, name, 50)
    monkeypatch.setattr(run, "TAIL_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _run(capsys, workload, trace, seed=0):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.001",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_and_names_every_metric(small, capsys, workload, trace):
    result, lines = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in spec:
        assert any(line.strip().startswith(f"{m['name']} = ") for line in lines)


def test_known_defects_count_as_failures_without_failing_the_run(small, capsys):
    result, lines = _run(capsys, "fredholm_catalog", 0)
    assert result["correct"] is True
    assert result["failed"] > 0
    assert any(workloads.DEFECT_SLOW_DECAY in line for line in lines)


@pytest.mark.parametrize("workload, kind, key", [
    ("koszul_les", "les", "full"),
    ("fredholm_catalog", "index", "index"),
])
def test_checker_flags_a_wrong_expected_answer(small, capsys, monkeypatch, workload, kind, key):
    build = workloads.BUILDERS[workload]

    def tampered(seed, wd):
        ops = build(seed, wd)
        op = next(op for op in ops if op.kind == kind and not op.known)
        value = op.expect[key]
        op.expect[key] = value + 1 if isinstance(value, int) else (value[0] + 1,) + tuple(value[1:])
        return ops

    monkeypatch.setitem(workloads.BUILDERS, workload, tampered)
    result, lines = _run(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_counts_and_digest_repeat_exactly(small, capsys):
    first, lines1 = _run(capsys, "koszul_les", 1, seed=3)
    second, lines2 = _run(capsys, "koszul_les", 1, seed=3)
    counts = [n for n in first["metrics"] if n.endswith((".calls", ".cells", "_ratio"))]
    assert counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    digest = [line for line in lines1 if "report_digest_sha256" in line]
    assert digest and digest == [line for line in lines2 if "report_digest_sha256" in line]


def test_trace_accounts_for_the_pass(small, capsys):
    result, _ = _run(capsys, "koszul_les", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["linalg.rank.calls"] > 0 and m["scalars.mul.calls"] > 0
    assert 0 <= m["trace.remainder_s"] < m["trace.pass_s"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "koszul_les", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
