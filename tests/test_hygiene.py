"""Source hygiene that no installed linter checks: every name a module of
the package imports is used in that module, and the package has no
`assert` statement, which `python -O` strips."""

import ast
from pathlib import Path

import pytest

import iwatower

PACKAGE = Path(iwatower.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by the module's import statements that no other node
    reads, counting names inside string annotations.  `__future__`
    imports are directives, not bindings, and are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    annotations = [
        note
        for node in ast.walk(tree)
        for note in (
            getattr(node, "annotation", None),
            getattr(node, "returns", None),
        )
        if isinstance(note, ast.Constant) and isinstance(note.value, str)
    ]
    trees = [tree] + [ast.parse(note.value, mode="eval") for note in annotations]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "def f(x: 'np.ndarray'):\n"
        "    return dataclass\n"
    )
    assert unused_imports(source) == ["line 2: field"]


def assert_statements(source: str) -> list:
    """Line numbers of the `assert` statements in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def test_scan_flags_an_assert():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return 'assert x'\n"
    )
    assert assert_statements(source) == [3]
