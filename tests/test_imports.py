"""No module under src/dianasched/ imports a name it never uses, imports
anything below its top level or holds an `assert` statement.

No linter ships with the project's dependencies, so this stands in for
the unused-import check.  `__init__.py` is skipped there: its imports
are the package's exports.  An import inside a function can hide an
import cycle, so every import sits at module top level.  Engine
invariants raise typed errors instead of asserting, because `python -O`
strips every `assert`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dianasched"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def late_import_lines(source: str):
    """The line of each import that is not a statement of the module body."""
    tree = ast.parse(source)
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, (ast.Import, ast.ImportFrom))
                  and n not in tree.body)


def assert_lines(source: str):
    """The line of each `assert` statement in a module."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Assert))


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Dict\n"
                          "x: List[int] = []\n") == ["Dict", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_a_late_import():
    assert late_import_lines("import os\ndef f():\n    from . import x\n"
                             "    return x\nif os:\n    import re\n") == [3, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_top_level(path):
    assert late_import_lines(path.read_text()) == []


def test_finds_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'x'\n") == [3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []
