"""Every module-level import of the package is used by its module, no module
imports scipy, only `verify` fits a rate, and every function, method and
class of the package is reached by the package or named by the benchmark."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pseudoproc"
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
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
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


def _polyfit_calls(tree):
    """Lines that call polyfit, by attribute (np.polyfit) or by bare name."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "attr", None) == "polyfit"
                       or getattr(node.func, "id", None) == "polyfit"))


def test_the_polyfit_scan_reports_every_form():
    tree = ast.parse("import numpy as np\nfrom numpy import polyfit\n"
                     "a = np.polyfit(x, y, 1)\nb = polyfit(x, y, 1)\n"
                     "def f(x, y):\n"
                     "    return np.polynomial.polynomial.polyfit(x, y, 1)\n"
                     "c = np.polyval(a, x)\n")
    assert _polyfit_calls(tree) == [3, 4, 6]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "verify.py"],
                         ids=lambda p: p.name)
def test_only_the_verify_module_fits_a_rate(path):
    # the library returns measurements; verify's _slope fits every rate
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _polyfit_calls(tree), \
        f"{path.name}: polyfit at lines {_polyfit_calls(tree)}"


def _unreached(trees, mentioned):
    """Names of the functions, methods, classes and module-level assigned
    names of `trees` that no Name or Attribute load outside their own body
    (for a name, its assignment) reads and `mentioned` does not name; dunder
    names, read by the language, are left out.

    A method is reported as "Class.name".  `self.name` and `cls.name` in a
    class, and `Class.name`, reach name on that class and its bases alone;
    an attribute load on any other receiver reaches every definition of its
    name."""
    classes = {node.name: node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def lineage(name):
        """The class and its bases that the trees define."""
        found, todo = [], [name]
        while todo:
            cls = todo.pop()
            if cls in classes and cls not in found:
                found.append(cls)
                todo += [b.id for b in classes[cls].bases
                         if isinstance(b, ast.Name)]
        return found

    loads = {}      # (owning class or None, name) -> ids of the load nodes

    def scan(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                loads.setdefault((None, child.id), []).append(id(child))
            elif (isinstance(child, ast.Attribute)
                  and isinstance(child.ctx, ast.Load)):
                receiver = getattr(child.value, "id", None)
                if receiver in ("self", "cls") and owner:
                    owners = lineage(owner)
                elif receiver in classes:
                    owners = lineage(receiver)
                else:
                    owners = [None]
                for cls in owners:
                    loads.setdefault((cls, child.attr), []).append(id(child))
            scan(child, child.name if isinstance(child, ast.ClassDef)
                 else owner)

    definitions = []    # (owning class or None, name, defining node)
    for tree in trees:
        scan(tree, None)
        for node in ast.walk(tree):
            owner = node.name if isinstance(node, ast.ClassDef) else None
            definitions += [(owner, child.name, child)
                            for child in ast.iter_child_nodes(node)
                            if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef,
                                                  ast.ClassDef))]
        definitions += [(None, target.id, node) for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for top in (node.targets if isinstance(node, ast.Assign)
                                    else [node.target])
                        for target in ast.walk(top)
                        if isinstance(target, ast.Name)
                        and isinstance(target.ctx, ast.Store)]
    found = set()
    for owner, name, node in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        body = {id(n) for n in ast.walk(node)}
        reaching = loads.get((None, name), []) + (
            loads.get((owner, name), []) if owner else [])
        if any(i not in body for i in reaching):
            continue
        if not re.search(rf"\b{re.escape(name)}\b", mentioned):
            found.add(f"{owner}.{name}" if owner else name)
    return found


def test_the_reachability_scan_reports_an_unreached_definition():
    tree = ast.parse("class A:\n"
                     "    def used(self):\n        return 1\n"
                     "    def recursive(self):\n"
                     "        return self.recursive()\n"
                     "    def hooked(self):\n        pass\n"
                     "    def __repr__(self):\n        return ''\n"
                     "x = A().used()\n")
    assert _unreached([tree], "Hook('m:A.hooked')") == {"A.recursive", "x"}


def test_the_reachability_scan_reports_an_unread_module_level_name():
    tree = ast.parse("TABLE = {'a': 1}\n"
                     "UNREAD, PAIRED = 2, 3\n"
                     "COUNT: int = TABLE['a'] + PAIRED\n"
                     "SQUARES = [k * k for k in range(COUNT)]\n"
                     "__all__ = ['f']\n"
                     "def f():\n    return SQUARES\n")
    assert _unreached([tree], "f") == {"UNREAD"}


def test_the_reachability_scan_keys_self_loads_by_their_class():
    # B.step shares its name with A.step, which A.run reaches through self;
    # C inherits run from A, and C.go reaches A.run through self
    tree = ast.parse("class A:\n"
                     "    def run(self):\n        return self.step()\n"
                     "    def step(self):\n        return 1\n"
                     "class B:\n"
                     "    def step(self):\n        return 2\n"
                     "class C(A):\n"
                     "    def go(self):\n        return self.run()\n"
                     "x = C().go(), B\n")
    assert _unreached([tree], "") == {"B.step", "x"}


def test_every_definition_is_reached():
    trees = [ast.parse(p.read_text(), filename=str(p))
             for p in PACKAGE.glob("*.py")]
    mentioned = "\n".join(p.read_text()
                          for p in (ROOT / "perfbench").glob("*.py"))
    assert _unreached(trees, mentioned) == set()
