"""Checks on the package source itself."""

import ast
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
