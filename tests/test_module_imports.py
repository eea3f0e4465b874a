"""Every module-level import of the package is used by its module, no module
imports scipy, and every function, method and class of the package is
reached by the package or named by the benchmark."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pseudoproc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# definitions kept although nothing in the package loads them, with the reason
UNREACHED_BY_DESIGN = {
    "mode_factor": "the per-mode reference the sign-convention tests of "
                   "GeneratorAction compare against",
}


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


def _fft_uses(tree):
    """Lines that reach numpy.fft: np.fft / numpy.fft attributes and imports."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            lines += [node.lineno for a in node.names
                      if a.name.startswith("numpy.fft")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.fft") or (
                    node.module == "numpy"
                    and any(a.name == "fft" for a in node.names)):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_fft_scan_reports_every_form():
    tree = ast.parse("import numpy as np\nimport numpy.fft\n"
                     "from numpy import fft\nfrom numpy.fft import ifft\n"
                     "x = np.fft.fft(np.ones(4))\ny = np.abs(x)\n")
    assert _fft_uses(tree) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_only_the_grid_module_calls_numpy_fft(path):
    # every transform goes through grid, where the tracer counts it
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _fft_uses(tree), f"{path.name}: numpy.fft at lines {_fft_uses(tree)}"


def _scipy_imports(tree):
    """Lines that import scipy, at module level or inside a function."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            lines += [node.lineno for a in node.names
                      if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "scipy":
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scipy_scan_reports_every_form():
    tree = ast.parse("import scipy\nimport scipy.special as sp\n"
                     "from scipy import special\n"
                     "def f(x):\n    from scipy.special import j1\n"
                     "    import scipyx\n    return j1(x)\n")
    assert _scipy_imports(tree) == [1, 2, 3, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_package_imports_no_scipy(path):
    # scipy is an oracle of the tests only; no command may load it
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _scipy_imports(tree), \
        f"{path.name}: scipy import at lines {_scipy_imports(tree)}"


def _unreached(trees, mentioned):
    """Names of the functions, methods and classes of `trees` that no Name
    or Attribute load outside their own body reads and `mentioned` does not
    name; dunder methods, called by the language, are left out."""
    loads = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(id(node))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loads.setdefault(node.attr, []).append(id(node))
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            body = {id(n) for n in ast.walk(node)}
            if any(i not in body for i in loads.get(name, ())):
                continue
            if not re.search(rf"\b{re.escape(name)}\b", mentioned):
                found.add(name)
    return found


def test_the_reachability_scan_reports_an_unreached_definition():
    tree = ast.parse("class A:\n"
                     "    def used(self):\n        return 1\n"
                     "    def recursive(self):\n"
                     "        return self.recursive()\n"
                     "    def hooked(self):\n        pass\n"
                     "    def __repr__(self):\n        return ''\n"
                     "x = A().used()\n")
    assert _unreached([tree], "Hook('m:A.hooked')") == {"recursive"}


def test_every_definition_is_reached():
    trees = [ast.parse(p.read_text(), filename=str(p))
             for p in PACKAGE.glob("*.py")]
    mentioned = "\n".join(p.read_text()
                          for p in (ROOT / "perfbench").glob("*.py"))
    unreached = _unreached(trees, mentioned)
    assert unreached - set(UNREACHED_BY_DESIGN) == set(), "unreached"
    assert set(UNREACHED_BY_DESIGN) - unreached == set(), "stale exemptions"
