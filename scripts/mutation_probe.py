#!/usr/bin/env python3
"""Switch off, one at a time, each check that a certificate or verdict
rests on, and report whether the tier-1 suite notices.

Usage: python3 scripts/mutation_probe.py [ROW ...]

Each row of MUTANTS names a file under src/koszulkit, a text that occurs
exactly once in it, the replacement that switches the check off, and
the check.  A check that survives is either a guard no test makes fire,
which wants a test, or one implied by other checks, which wants
deleting with its argument.  The probe copies the repository once into a
temporary directory, before the first run, so one run judges one tree
even if the working tree changes meanwhile.  For each row (all rows when
none is named) it applies the one replacement to a fresh copy of that
snapshot and runs ``python -m pytest -x -q tests perfbench`` in it, less
the test of this table; the working tree is never edited.  A mutant is
killed when the suite fails and survives when it passes.  The last
lines are a table: row, outcome, the first failing test of a killed
mutant, and the check.  A full run takes several minutes; tier-1 does
not run it.

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

#: (row, file, original text, replacement, check)
MUTANTS = (
    (
        "a",
        "ell2.py",
        "    if np.abs(X - Kp @ (Kp.conj().T @ X)).max(initial=0.0) > TOL_RESIDUAL * s.max(initial=1.0):",
        "    if False:",
        "chain step: the residual (I - KK*) B x within TOL_RESIDUAL max(1, norm B)",
    ),
    (
        "a-layer",
        "ell2.py",
        "    if np.abs(X - Kp @ (Kp.conj().T @ X)).max(initial=0.0) > TOL_RESIDUAL * s.max(initial=1.0):",
        "    if not layer and np.abs(X - Kp @ (Kp.conj().T @ X)).max(initial=0.0) > TOL_RESIDUAL * s.max(initial=1.0):",
        "layer step: the residual (I - KK*) B x within TOL_RESIDUAL max(1, norm B)",
    ),
    (
        "guard-layer",
        "ell2.py",
        "    if np.linalg.norm(new[N - G :]) > TOL_GUARD:",
        "    if not layer and np.linalg.norm(new[N - G :]) > TOL_GUARD:",
        "layer step: new directions vanish on the guard band",
    ),
    (
        "b",
        "ell2.py",
        "        if lo > 4 * np.pi * K * P / M * hi:",
        "        if True:",
        "symbol_winding: the Bernstein bound",
    ),
    (
        "c",
        "tower.py",
        "            if resid > TOL_INTERTWINE:",
        "            if False:",
        "kernel_tower: the triangular-structure residual",
    ),
    (
        "e",
        "tower.py",
        "        if dims[n] > dims[n - 1]:",
        "        if False:",
        "kernel_tower: a layer larger than the one before",
    ),
    (
        "f",
        "tower.py",
        "    bad = (inv > TOL_INVARIANCE) | (corner > TOL_INVARIANCE)",
        "    bad = inv > TOL_INVARIANCE",
        "commutant_blocks: the upper-right corner",
    ),
    (
        "g",
        "tower.py",
        "        similarity_certified=certified,",
        "        similarity_certified=True,",
        "commutant_blocks: similarity_certified forced true",
    ),
    (
        "radius",
        "tower.py",
        "        radius=float(np.abs(roots[0]).max()),",
        "        radius=float(np.abs(roots[-1]).max()),",
        "commutant_blocks: r is the spectral radius of X_n0, not of a later corner",
    ),
    (
        "h",
        "tower.py",
        "        and all(norms[n] >= r - TOL_RADIUS for n in range(tower.n0, tower.depth + 1))",
        "        and True",
        "obstruction_certificate: every layer norm >= r - TOL_RADIUS",
    ),
    (
        "j",
        "koszul.py",
        "    if any(dim < 0 for dim in dims):",
        "    if False:",
        "float _cohomology: the negative-dimension refusal",
    ),
    (
        "k",
        "linalg.py",
        "    if float(np.linalg.norm(resid)) > 1e3 * t * scale:",
        "    if False:",
        "float solve: the residual check",
    ),
    (
        "l",
        "tower.py",
        "        if dim < index:",
        "        if False:",
        "kernel_tower: every layer dimension >= the index",
    ),
    (
        "n0-plateau",
        "tower.py",
        "    for n0 in range(p + 1, max_depth - 1):",
        "    for n0 in range(2, max_depth - 1):",
        "kernel_tower: n0 lies past the first layer p of the last size",
    ),
    (
        "n0-invertible",
        "tower.py",
        "        if all(np.linalg.svd(lv.a_block, compute_uv=False)[-1] > TOL_LAYER for lv in levels[n0 - 1 : n0 + 1]):",
        "        if True:",
        "kernel_tower: n0 needs invertible compressions A_n and A_(n+1)",
    ),
    (
        "growth-index-zero",
        "tower.py",
        "    if wind == 0:",
        "    if False:",
        "growth_table: the index, -wind, is nonzero",
    ),
    (
        "growth-index",
        "tower.py",
        "        if k - c != m * index:",
        "        if False:",
        "growth_table: every row's index is m times the index of T",
    ),
    (
        "les-agree",
        "koszul.py",
        "    if direct.dims != dims_seq:",
        "    if False:",
        "les: the direct and the long-exact-sequence dimensions agree",
    ),
    (
        "spectrum-exact",
        "spectrum.py",
        "        if covered < dim:",
        "        if False:",
        "exact spectrum: the Gaussian-rational eigenvalues cover the dimension",
    ),
    (
        "eig-blocks",
        "linalg.py",
        "reach[i] >> j & reach[j] >> i & 1",
        "reach[i] >> j & 1",
        "exact eigenvalues: a block is the indices that reach i and that i reaches",
    ),
    (
        "spectrum-float",
        "spectrum.py",
        "    if total != dim:",
        "    if False:",
        "spectrum: the eigenspaces of each level cover its dimension",
    ),
    (
        "sine",
        "ell2.py",
        "        if sine > TOL_RESIDUAL:",
        "        if False:",
        "full chain step: ker T^(m-1) lies in the preimages of its span (the sine)",
    ),
    (
        "bound",
        "ell2.py",
        "        if bound is not None and d > bound:",
        "        if False:",
        "chain step: no count above the bound on the dimension",
    ),
    (
        "bound-zero",
        "ell2.py",
        "    if bound == 0:",
        "    if not bound:",
        "chain step: only a bound of 0, not a missing one, settles a kernel unread",
    ),
    (
        "guard",
        "ell2.py",
        "    if np.linalg.norm(new[N - G :]) > TOL_GUARD:",
        "    if False:",
        "chain step: new directions vanish on the guard band",
    ),
    (
        "n-2n",
        "ell2.py",
        "        if d == bound or (not prev.dim and walk.nullity(2 * N) == d) or d == at(2 * N)[0]:",
        "        if True:",
        "chain step: a count below the bound waits for N and 2N to agree",
    ),
    (
        "fredholm",
        "ell2.py",
        "        if lo <= TOL_CIRCLE * hi:",
        "        if False:",
        "symbol_winding: the not-Fredholm refusal",
    ),
    (
        "depth",
        "tower.py",
        "    if max_depth < 4:",
        "    if False:",
        "kernel_tower: a depth below 4 fails before any section",
    ),
    (
        "index-sign",
        "tower.py",
        "    if index <= 0:",
        "    if False:",
        "kernel_tower: the index is positive",
    ),
    (
        "commute-op",
        "tower.py",
        "    if TS != ST:",
        "    if False:",
        "commutant_blocks: T and K commute",
    ),
    (
        "invariance",
        "tower.py",
        "    bad = (inv > TOL_INVARIANCE) | (corner > TOL_INVARIANCE)",
        "    bad = corner > TOL_INVARIANCE",
        "commutant_blocks: the invariance residual of each ker T^n",
    ),
    (
        "commute-exact",
        "koszul.py",
        "                if not (C.is_zero() if exact else C.fro_norm() <= tol):",
        "                if not (True if exact else C.fro_norm() <= tol):",
        "exact tuple: the matrices commute",
    ),
    (
        "commute-float",
        "koszul.py",
        "                if not (C.is_zero() if exact else C.fro_norm() <= tol):",
        "                if not (C.is_zero() if exact else True):",
        "float tuple: the matrices commute within the tolerance",
    ),
    (
        "compress-exact",
        "linalg.py",
        "            C = C if E @ C == ME else None",
        "            C = C",
        "compress: an exact E C = M E",
    ),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_out", ".hypothesis")


def occurrences(row, root=ROOT) -> int:
    """How often the row's original text occurs in its file under root."""
    _, name, original, *_ = row
    return (root / PACKAGE / name).read_text(encoding="utf-8").count(original)


def run_mutant(snapshot, row=None) -> tuple:
    """("killed" or "survived", first failing test or "") of one row, run
    on a copy of the snapshot; with no row, of the copy as it is."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(snapshot, copy)
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
    # a test id may hold " - " inside its brackets, the message follows them
    failed = re.search(r"^(?:FAILED|ERROR) ([^\s\[]+(?:\[[^\]]*\])?)", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"exit {proc.returncode}"


def main(argv) -> int:
    rows = {row[0]: row for row in MUTANTS}
    unknown = [key for key in argv if key not in rows]
    if unknown:
        print(f"unknown rows: {', '.join(unknown)}; known: {', '.join(rows)}", file=sys.stderr)
        return 2
    chosen = [rows[key] for key in argv] or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="probe-") as tmp:
        snapshot = Path(tmp) / "repo"
        shutil.copytree(ROOT, snapshot, ignore=_IGNORE)
        for row in chosen:
            if occurrences(row, snapshot) != 1:
                print(f"row {row[0]}: its text occurs {occurrences(row, snapshot)} times in {row[1]}", file=sys.stderr)
                return 2
        outcome, test = run_mutant(snapshot)
        if outcome != "survived":
            print(f"the unmutated suite fails ({test}): no mutant can be judged", file=sys.stderr)
            return 1
        results = []
        for row in chosen:
            outcome, test = run_mutant(snapshot, row)
            print(f"{row[0]}: {outcome} {test}".rstrip(), flush=True)
            results.append((row, outcome, test))
    print("| row | outcome | killed by | check |")
    print("| --- | --- | --- | --- |")
    for (key, _, _, _, check), outcome, test in results:
        print(f"| {key} | {outcome} | {f'`{test}`' if test else '-'} | {check} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
