"""Smoke tests for the scripts in scripts/, run as separate processes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env=os.environ | {"PYTHONPATH": path},
    )


def test_run_demos_writes_three_valid_reports(tmp_path):
    proc = run_script("run_demos.py", str(tmp_path / "reports"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    files = sorted(p.name for p in (tmp_path / "reports").iterdir())
    assert files == ["theorem-1.1.csv", "theorem-1.1.json", "theorem-2.1.json"]
    schema = json.loads(
        resources.files("koszulkit").joinpath("schemas/report.schema.json").read_text()
    )
    for name in ("theorem-1.1.json", "theorem-2.1.json"):
        jsonschema.validate(json.loads((tmp_path / "reports" / name).read_text()), schema)


def test_perturbation_survey_prints_every_candidate(tmp_path):
    proc = run_script("perturbation_survey.py", "6", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines()[2:] if " | " in line]
    assert len(rows) == 17
    assert all(row.endswith(("obstructed", "inconclusive")) for row in rows)
