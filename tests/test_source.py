"""Source checks that need no linter: the standard library's `ast` only."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "roadeye"
# The package's __init__ imports names to export them, not to use them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that nothing in it
    reads: no name, attribute base or `__all__` entry. `from __future__`
    imports bind no name."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .a import b, c as d\n__all__ = ['d']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of every absolute module that `source` imports,
    at module level or inside a function."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    source = ("import os.path\nfrom . import a\nfrom .b import c\n"
              "def f():\n    from scipy.optimize import linear_sum_assignment\n")
    assert imported_modules(source) == {"os", "scipy"}


def test_the_package_imports_only_the_standard_library_and_its_dependencies():
    # A dependency beyond pyproject's (scipy, say, for the assignment solver)
    # would fail an install that follows it, and importing scipy.optimize
    # adds about 0.1 s to start-up.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    allowed = set(sys.stdlib_module_names)
    allowed |= {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in dependencies}
    imported = {p.name: imported_modules(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: sorted(m - allowed) for name, m in imported.items() if m - allowed} == {}
