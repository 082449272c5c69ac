"""Checks on the package source itself."""

import ast
import importlib.util
import re
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "koszulkit"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_found():
    assert PACKAGE / "koszul.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_has_no_assert(path):
    # `python -O` strips assert statements; invariants need explicit errors
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


def _defined_names():
    """Every function, class and assigned name anywhere in the package."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_quoted_in_prose_are_defined(path):
    # a docstring or comment that quotes a deleted helper in ``...`` is stale
    with path.open("rb") as f:
        prose = [
            tok.string
            for tok in tokenize.tokenize(f.readline)
            if tok.type in (tokenize.COMMENT, tokenize.STRING)
        ]
    quoted = {
        name
        for text in prose
        for span in re.findall(r"``([^`]+)``", text)
        for name in re.findall(r"\b_\w+", span)
    }
    missing = sorted(quoted - _defined_names())
    assert missing == [], f"{path.name} quotes undefined private names {missing}"


#: the one module-level cache allowed: the argparse tree, built once per process
_CACHE_ALLOWED = {("cli.py", "build_parser")}
_CACHES = {"cache", "lru_cache"}
_DICT_WRITES = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}


def _callee(node):
    """Name of a decorator or called function: ``cache``, ``functools.cache``
    and ``lru_cache(maxsize=2)`` all give their last name."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_keeps_no_memo_across_calls(path):
    # a module-level cache or memo dict would let a repeated call reuse work
    # from an earlier one; caches live inside the call that builds them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            top += node.body
    found = [
        node.name
        for node in top
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_callee(d) in _CACHES for d in node.decorator_list)
        and (path.name, node.name) not in _CACHE_ALLOWED
    ]
    dicts = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node.value, ast.Call) and _callee(node.value.func) in _CACHES:
                found += names  # x = lru_cache(...)(f)
            if isinstance(node.value, ast.Dict) or _callee(node.value) in {"dict", "defaultdict"}:
                dicts.update(names)
    for node in ast.walk(tree):
        written = (
            isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
        ) or (isinstance(node, ast.Attribute) and node.attr in _DICT_WRITES)
        if written and isinstance(node.value, ast.Name) and node.value.id in dicts:
            found.append(node.value.id)
    assert found == [], f"{path.name} keeps module-level caches or memo dicts {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_no_private_name_from_another_module(path):
    # a private helper stays behind the module that defines it: a decision
    # such as how a kernel basis is phased is made in one place only.  It
    # is neither imported by name nor read off an imported package module
    # (``from . import jsonio`` then ``jsonio._expect``).
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stems = {p.stem for p in MODULES}
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "koszulkit"
        ):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
            modules |= {a.asname or a.name for a in node.names if a.name in stems}
        elif isinstance(node, ast.Import):
            modules |= {
                a.asname or a.name for a in node.names if a.name.split(".")[0] == "koszulkit"
            }
    found += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    assert found == [], f"{path.name} imports private names {found}"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, PACKAGE.parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_PROBE = _script("mutation_probe")
_COVERAGE = _script("line_coverage")


@pytest.mark.parametrize("row", _PROBE.MUTANTS, ids=[row[0] for row in _PROBE.MUTANTS])
def test_each_mutation_probe_row_names_one_place_in_its_file(row):
    # a row whose text moved or was duplicated would mutate nothing, or
    # the wrong check, and report it as a survivor or a kill
    assert _PROBE.occurrences(row) == 1


@pytest.mark.parametrize("entry", _COVERAGE.ALLOWED, ids=[f"{name}:{text.strip()}" for name, text in _COVERAGE.ALLOWED])
def test_each_line_coverage_allowance_names_one_line_of_its_file(entry):
    # an allowance whose line moved or was duplicated would excuse nothing,
    # or a line that tests should run
    assert _COVERAGE.occurrences(entry) == 1
