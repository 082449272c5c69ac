#!/usr/bin/env python3
"""Switch off, one at a time, each check that a certificate or verdict
rests on, and report whether the tier-1 suite notices.

Usage: python3 scripts/mutation_probe.py [ROW ...]

Each row of MUTANTS names a file under src/koszulkit, a text that occurs
exactly once in it, the replacement that switches the check off, and
the kind of check: a guard, which some input should make fire, or one
implied by another check.  For each row (all rows when none is named)
the probe copies the repository into a temporary directory, applies the
one replacement there and runs ``python -m pytest -x -q tests perfbench``
in the copy, less the test of this table; the working tree is never
edited.  A mutant is killed when
the suite fails and survives when it passes.  The last lines are a
table: row, outcome, the first failing test of a killed mutant, and the
check.  A full run takes several minutes; tier-1 does not run it.

The suite first runs on an unmutated copy, which must pass.  Exit
status: 0 when every mutant was run, 1 when the unmutated suite fails, 2
for an unknown row or an original text that does not occur exactly once.
Standard library only.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/koszulkit"

#: the tier-1 test that each row's text occurs once, which every mutant
#: fails by construction; the probe deselects it
SELF_TEST = "tests/test_source.py::test_each_mutation_probe_row_names_one_place_in_its_file"

#: (row, file, original text, replacement, check, kind)
MUTANTS = (
    (
        "a",
        "ell2.py",
        "    if np.abs(X - Kp @ (Kp.conj().T @ X)).max(initial=0.0) > TOL_RESIDUAL * s.max(initial=1.0):",
        "    if False:",
        "chain step: the residual (I - KK*) B x within TOL_RESIDUAL max(1, norm B)",
        "guard",
    ),
    (
        "a-layer",
        "ell2.py",
        "    if np.abs(X - Kp @ (Kp.conj().T @ X)).max(initial=0.0) > TOL_RESIDUAL * s.max(initial=1.0):",
        "    if not layer and np.abs(X - Kp @ (Kp.conj().T @ X)).max(initial=0.0) > TOL_RESIDUAL * s.max(initial=1.0):",
        "layer step: the residual (I - KK*) B x within TOL_RESIDUAL max(1, norm B)",
        "guard",
    ),
    (
        "guard-layer",
        "ell2.py",
        "    if np.linalg.norm(new[N - G :]) > TOL_GUARD:",
        "    if not layer and np.linalg.norm(new[N - G :]) > TOL_GUARD:",
        "layer step: new directions vanish on the guard band",
        "guard",
    ),
    (
        "b",
        "ell2.py",
        "        if lo > 4 * np.pi * K * P / M * hi:",
        "        if True:",
        "symbol_winding: the Bernstein bound",
        "guard",
    ),
    (
        "c",
        "tower.py",
        "            if resid > TOL_INTERTWINE:",
        "            if False:",
        "kernel_tower: the triangular-structure residual",
        "implied",
    ),
    (
        "d",
        "tower.py",
        "    if gram.size and float(np.abs(gram - np.eye(gram.shape[0])).max()) > TOL_INVARIANCE:",
        "    if False:",
        "kernel_tower: the orthonormality of the layers",
        "implied",
    ),
    (
        "e",
        "tower.py",
        "        if dims[n] > dims[n - 1]:",
        "        if False:",
        "kernel_tower: a layer larger than the one before",
        "guard",
    ),
    (
        "f",
        "tower.py",
        "    bad = (inv > TOL_INVARIANCE) | (corner > TOL_INVARIANCE)",
        "    bad = inv > TOL_INVARIANCE",
        "commutant_blocks: the upper-right corner",
        "implied",
    ),
    (
        "g",
        "tower.py",
        "        similarity_certified=certified,",
        "        similarity_certified=True,",
        "commutant_blocks: similarity_certified forced true",
        "guard",
    ),
    (
        "h",
        "tower.py",
        "        and all(norms[n] >= r - TOL_RADIUS for n in range(tower.n0, tower.depth + 1))",
        "        and True",
        "obstruction_certificate: every layer norm >= r - TOL_RADIUS",
        "implied",
    ),
    (
        "i",
        "tower.py",
        "        and all(d >= 1 for d in tower.layer_dims())",
        "        and True",
        "obstruction_certificate: every layer dimension >= 1",
        "implied",
    ),
    (
        "j",
        "koszul.py",
        "    if any(dim < 0 for dim in dims):",
        "    if False:",
        "float _cohomology: the negative-dimension refusal",
        "guard",
    ),
    (
        "k",
        "linalg.py",
        "    if float(np.linalg.norm(resid)) > 1e3 * t * scale:",
        "    if False:",
        "float solve: the residual check",
        "guard",
    ),
    (
        "l",
        "tower.py",
        "        if dim < index:",
        "        if False:",
        "kernel_tower: every layer dimension >= the index",
        "guard",
    ),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_out", ".hypothesis")


def occurrences(row) -> int:
    """How often the row's original text occurs in its file."""
    _, name, original, *_ = row
    return (ROOT / PACKAGE / name).read_text(encoding="utf-8").count(original)


def run_mutant(row=None) -> tuple:
    """("killed" or "survived", first failing test or "") of one row, run
    on a copy of the repository; with no row, of the copy as it is."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        if row is not None:
            _, name, original, replacement, *_ = row
            path = copy / PACKAGE / name
            path.write_text(path.read_text(encoding="utf-8").replace(original, replacement), encoding="utf-8")
        env = os.environ | {"PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", SELF_TEST, "tests", "perfbench"],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
        )
    if proc.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"exit {proc.returncode}"


def main(argv) -> int:
    rows = {row[0]: row for row in MUTANTS}
    unknown = [key for key in argv if key not in rows]
    if unknown:
        print(f"unknown rows: {', '.join(unknown)}; known: {', '.join(rows)}", file=sys.stderr)
        return 2
    chosen = [rows[key] for key in argv] or list(MUTANTS)
    for row in chosen:
        if occurrences(row) != 1:
            print(f"row {row[0]}: its text occurs {occurrences(row)} times in {row[1]}", file=sys.stderr)
            return 2
    outcome, test = run_mutant()
    if outcome != "survived":
        print(f"the unmutated suite fails ({test}): no mutant can be judged", file=sys.stderr)
        return 1
    results = []
    for row in chosen:
        outcome, test = run_mutant(row)
        print(f"{row[0]}: {outcome} {test}".rstrip(), flush=True)
        results.append((row, outcome, test))
    print("| row | outcome | killed by | check | kind |")
    print("| --- | --- | --- | --- | --- |")
    for (key, _, _, _, check, kind), outcome, test in results:
        print(f"| {key} | {outcome} | {f'`{test}`' if test else '-'} | {check} | {kind} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
