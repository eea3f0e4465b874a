"""Every module-level import of the package is used by its module."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pseudoproc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """Name bound by each module-level import, mapped to its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree):
    """Every name the module loads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value))
                         if isinstance(n, ast.Name)}
    return used


def test_the_scan_covers_the_package():
    assert {p.stem for p in MODULES} >= {"cli", "spectral", "verify"}


def test_the_scan_reports_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nfrom typing import Iterator, Optional\n"
                     "def f(x: 'Optional[int]'):\n    return math.pi\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"Iterator"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in _used_names(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"
