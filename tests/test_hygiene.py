"""Source hygiene that no installed linter checks: every name a module of
the package imports is used in that module, every private top-level name
is read somewhere in the package, the package has no `assert`
statement, which `python -O` strips, and no `functools.cache` or
`functools.lru_cache`, whose entries outlive the objects they describe:
a cache lives on its object.  Range checks on integer parameters are
stated once, by `padic.at_least`: no other module words one; likewise
a square matrix and a determinant within the degree cap are required
only by `series.char_poly`, a residue field prime to p only by
`padic.h1_local_order`, and one variable only by
`SeriesElement.univariate_coeffs`.  The
package has no runtime dependency: it imports only the standard library
and itself, so neither importing it nor running the selftest's oracles
loads sympy or numpy."""

import ast
import os
import subprocess
import sys
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


def unread_private_names(sources: dict) -> list:
    """Top-level `_name` definitions (functions, classes, assignments) in
    `sources`, a map from module name to source text, that no module
    reads: as a loaded name, an attribute, or a `from ... import` name.
    Dunder names are skipped."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [
                (module, node.lineno, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(
        f"{module} line {line}: {name}" for module, line, name in defined if name not in read
    )


def test_no_unread_private_names():
    assert unread_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_scan_flags_an_unread_private_name():
    sources = {
        "a.py": (
            "_TABLE = {}\n"
            "_LEFT: int = 0\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    _local = 1\n"
            "    return _TABLE\n"
            "def _stale(lines):\n"
            "    yield from lines\n"
            "class _Kept:\n"
            "    pass\n"
        ),
        "b.py": "from .a import _Kept\nimport a\nx = a._helper()\n",
    }
    assert unread_private_names(sources) == ["a.py line 2: _LEFT", "a.py line 7: _stale"]


FUNCTOOLS_CACHES = {"cache", "lru_cache"}


def functools_caches(source: str) -> list:
    """Line numbers in `source` that import `cache` or `lru_cache` from
    `functools`, or read either as an attribute of a name the module
    binds to `functools`."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "functools"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name in FUNCTOOLS_CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES:
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_functools_caches(path):
    assert functools_caches(path.read_text()) == []


def test_scan_flags_a_functools_cache():
    source = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import reduce, lru_cache as memo\n"
        "@functools.cache\n"
        "def f(x):\n"
        "    return x\n"
        "g = ft.lru_cache(maxsize=None)(f)\n"
        "cache = {}\n"
        "def h(self):\n"
        "    return self.cache, self.lru_cache, functools.reduce, reduce, cache\n"
    )
    assert functools_caches(source) == [3, 4, 7]


def bound_messages(source: str) -> list:
    """Line numbers of the f-strings in `source` whose text holds
    "must be >=", the wording of a hand-written range check."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.JoinedStr)
        and any(isinstance(v, ast.Constant) and "must be >=" in v.value for v in node.values)
    )


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "padic.py"], ids=lambda p: p.name)
def test_range_checks_only_in_padic(path):
    assert bound_messages(path.read_text()) == []


def test_scan_flags_a_bound_message():
    source = (
        "def f(n, name):\n"
        "    if n < 0:\n"
        "        raise ValueError(f'n must be >= 0, got {n}')\n"
        "    g = 'must be >= 0'\n"
        "    return f'{name} must be  >= 1', f'{name} must be >= {n}'\n"
    )
    assert bound_messages(source) == [3, 5]


#: The module that alone raises each error of a rule with one home.
RULE_HOMES = {"DegreeOverflow": "series.py", "NotSquare": "series.py", "ResidueCharacteristicP": "padic.py"}


def raised_errors(source: str, names) -> list:
    """`line: name` for each `raise` in `source` of an error in `names`,
    raised as a class or as a call to it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in names:
                out.append(f"line {node.lineno}: {exc.id}")
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_rules_raised_only_in_their_home(path):
    assert raised_errors(path.read_text(), {n for n, home in RULE_HOMES.items() if home != path.name}) == []


def test_scan_flags_a_raise_outside_its_home():
    source = (
        "def f(m, q):\n"
        "    if len(m) != len(m[0]):\n"
        "        raise NotSquare('matrix is not square')\n"
        "    try:\n"
        "        return g(q)\n"
        "    except NotSquare:\n"
        "        raise ResidueCharacteristicP\n"
        "    if sum(len(r) for r in m) > q:\n"
        "        raise DegreeOverflow(f'degrees sum past D = {q}')\n"
        "    raise ValueError('NotSquare')\n"
    )
    assert raised_errors(source, set(RULE_HOMES)) == [
        "line 3: NotSquare", "line 7: ResidueCharacteristicP", "line 9: DegreeOverflow",
    ]


def string_sites(source: str, text: str) -> list:
    """(line, function) for each string constant in `source` that holds
    `text`, f-string parts included, with the name of the innermost
    function around it, or "" at module level."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value:
            out.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(out)


def test_one_variable_rule_has_one_home():
    sites = [(p.name, where) for p in SOURCES for _, where in string_sites(p.read_text(), "requires d = 1")]
    assert sites == [("series.py", "univariate_coeffs")]


def test_scan_finds_each_string_site():
    source = (
        "NOTE = 'requires d = 1'\n"
        "class S:\n"
        "    def coeffs(self, d):\n"
        "        if d != 1:\n"
        "            raise ValueError(f'{d} variables; coeffs requires d = 1')\n"
        "        return 'require d = 1'\n"
        "def prepare(f):\n"
        "    def inner():\n"
        "        return 'prepare requires d = 1'\n"
        "    return inner\n"
    )
    assert string_sites(source, "requires d = 1") == [(1, ""), (5, "coeffs"), (9, "inner")]


def outside_imports(source: str) -> list:
    """Modules that `source` imports, at any depth (function-local ones
    included), whose top-level package is neither in the standard library
    nor `iwatower`; relative imports are the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append((node.lineno, node.module))
    allowed = sys.stdlib_module_names | {"iwatower"}
    return sorted(f"line {line}: {name}" for line, name in names if name.split(".")[0] not in allowed)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_outside_imports(path):
    assert outside_imports(path.read_text()) == []


def test_scan_flags_an_outside_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import modules\n"
        "from iwatower.padic import ord_p\n"
        "def oracle():\n"
        "    import sympy.matrices.normalforms\n"
        "    from fractions import Fraction\n"
    )
    assert outside_imports(source) == ["line 2: numpy", "line 6: sympy.matrices.normalforms"]


def loaded_third_party(script: str) -> str:
    """The sorted sympy and numpy modules loaded after `script` runs in
    a fresh interpreter, as printed there."""
    proc = subprocess.run(
        [
            sys.executable, "-c",
            f"import os, sys\n{script}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'numpy')))",
        ],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["iwatower", "iwatower.cli"])
def test_import_leaves_sympy_unloaded(module):
    assert loaded_third_party(f"import {module}") == "[]"


def test_selftest_leaves_sympy_unloaded():
    # the selftest runs both oracles, the Smith form and the resultant
    script = "import iwatower.cli\nassert iwatower.cli.main(['selftest', '--out', os.devnull]) == 0"
    assert loaded_third_party(script) == "[]"
