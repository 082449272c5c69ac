"""Checks on the package source itself."""

import ast
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
