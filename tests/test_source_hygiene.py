"""Static checks on the package source, using only the standard `ast`
module.

Invariants must be explicit raises, because `python -O` strips `assert`
statements.  A name imported with `from .x import` that its module never
uses is dead weight and hides which module really depends on which.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sl2ybe").glob("*.py"))


def test_sources_found():
    assert any(p.name == "ybe.py" for p in SOURCES)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_relative_imports(path):
    tree = _tree(path)
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == [], f"{path.name}: unused imports"
