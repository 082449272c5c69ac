#!/usr/bin/env python3
"""List the executable lines of src/koszulkit that no tier-1 test runs.

Usage: python3 scripts/line_coverage.py

Runs ``pytest -q tests perfbench`` in this process under ``sys.settrace``
(``threading.settrace`` for the threads a test starts) and records the
line events of the package modules.  A line is executable when a
statement starts on it; docstrings are no statements.  A statement runs
when any line of it runs: of a compound statement (``if``, ``def``,
``try`` ...), any line of its header.  Lines that only a subprocess runs
count as not run.

Prints ``file:line: text`` for each statement no test ran, marking those
on ALLOWED, then a count.  Traced, the suite takes about three times as
long as untraced; tier-1 does not run this script.

Exit status: 0 when every line printed is on ALLOWED, 1 when one is not
or the suite fails.  Standard library only, besides the pytest it runs.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "koszulkit"

#: (file, text of exactly one line of it) that no tier-1 test need run
ALLOWED = (
    # the body of cli.py's ``__main__`` guard runs only as a script
    ("cli.py", "    raise SystemExit(main())"),
)


def occurrences(entry) -> int:
    """How many lines of the entry's file are its text."""
    name, text = entry
    return (PACKAGE / name).read_text(encoding="utf-8").splitlines().count(text)


def statement_lines(path) -> dict:
    """{line: first line of the statement whose code sits on it}."""
    owner = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):  # outer before inner
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        owner.update(dict.fromkeys(range(first, last + 1), node.lineno))
    return owner


def run_traced(args) -> tuple:
    """(pytest's exit status, {path: lines run}) of one traced pytest run."""
    files = {str(p.resolve()): p for p in sorted(PACKAGE.glob("*.py"))}
    hits = {p: set() for p in files.values()}
    inside = {}

    def local(frame, event, arg):
        if event == "line":
            hits[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = files.get(os.path.realpath(name))
        return local if inside[name] is not None else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        import pytest

        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    status, hits = run_traced(["-q", "-p", "no:cacheprovider", "tests", "perfbench"])
    allowed = set(ALLOWED)
    missed = strays = 0
    for path, run in hits.items():
        owner = statement_lines(path)
        text = path.read_text(encoding="utf-8").splitlines()
        ran = {owner[line] for line in run if line in owner}
        for line in sorted(set(owner.values()) - ran):
            known = (path.name, text[line - 1]) in allowed
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}{'  [allowed]' if known else ''}")
            missed += 1
            strays += not known
    print(f"{missed} statements not run, {strays} of them off the allow-list; pytest exit {status}")
    return 1 if strays or status else 0


if __name__ == "__main__":
    raise SystemExit(main())
