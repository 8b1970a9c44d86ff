"""Static checks on the package source, using only the standard `ast`
module.

Invariants must be explicit raises, because `python -O` strips `assert`
statements.  A name imported with `from .x import` that its module never
uses is dead weight and hides which module really depends on which, and
so is a module-level private function or class that no module refers to.
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


def _referenced_names():
    names = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_unreferenced_private_definitions():
    """A module-level `_name` function or class that nothing under the
    package refers to is dead code (tests do not count as users)."""
    used = _referenced_names()
    dead = [f"{path.name}:{node.name}"
            for path in SOURCES for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]
    assert dead == [], f"unreferenced private definitions: {dead}"
