"""Every import in the package and its tests is used, every function and
class the package defines is referenced, no package module reads another
module's private names, the package imports neither ``fractions`` nor
the tests, and the direct solver reaches no ``scipy.sparse``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def imports(source: str) -> list[tuple[str, str, int]]:
    """(name bound, top-level module or "." for a relative one, line) of
    every import but ``__future__``'s."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.split(".")[0]
                out.append((alias.asname or module, module, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." if node.level else node.module.split(".")[0]
            out += [(alias.asname or alias.name, module, node.lineno) for alias in node.names]
    return out


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; a name listed in
    ``__all__`` counts as read (a package re-exports it)."""
    tree = ast.parse(source)
    imported = {name: line for name, _, line in imports(source)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_scan_sees_unused_imports():
    source = ("import os, sys\nfrom math import pi as tau, e\n"
              "import numpy.linalg\n__all__ = ['e']\nprint(sys)\n")
    assert unused_imports(source) == ["line 1: os", "line 2: tau", "line 3: numpy"]
    modules = {module for _, module, _ in imports(source + "from .mesh import BoxDomain\n")}
    assert modules == {"os", "sys", "math", "numpy", "."}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def references(source: str) -> set[str]:
    """Names a module reads, attributes it takes, and strings it spells out
    whole (``getattr(module, "name")``), except where a module-level
    function or class names itself inside its own body."""
    found = set()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant)
                    and isinstance(node.value, str) else None)
            if name is not None and name != own:
                found.add(name)
    return found


def definitions(source: str) -> list[str]:
    """Names of the module-level functions and classes of a module."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_the_scan_sees_dead_definitions():
    source = ("def f(n):\n    return f(n - 1)\n\n"
              "def g():\n    return h\n\n"
              "def h():\n    pass\n\n"
              "class K:\n    pass\n\n"
              "def unused():\n    pass\n")
    other = "import m\nm.K()\ngetattr(m, 'g')\n"
    used = references(source) | references(other)
    assert [name for name in definitions(source) if name not in used] == ["f", "unused"]


def test_no_dead_definitions_in_the_package():
    # referenced from the package, its tests or the benchmark
    used = set().union(*(references(p.read_text()) for d in ("src", "tests", "bench")
                         for p in (ROOT / d).rglob("*.py")))
    dead = {str(p.relative_to(ROOT)): names for p in (ROOT / "src").rglob("*.py")
            if (names := [n for n in definitions(p.read_text()) if n not in used])}
    assert dead == {}


def private_reads(source: str) -> list[str]:
    """The ``_``-prefixed names a module imports, and the ``_``-prefixed
    attributes it reads of anything but ``self`` or ``cls``; dunder names
    such as ``__name__`` are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in (
                "self", "cls"):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.endswith("__")]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_scan_sees_private_names_of_other_modules():
    source = ("from __future__ import annotations\n"
              "from .solver import _residual, cholesky\n"
              "x = elem._cache.get(self._key)\n"
              "y = cls._made, type(x).__name__, f()._last\n")
    assert private_reads(source) == ["line 2: _residual", "line 3: _cache",
                                     "line 4: _last"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_reads_another_modules_private_names(path):
    # a module's private names are its own: what another module needs is
    # public, under a name it can be held to
    assert private_reads(path.read_text()) == []


def test_the_package_imports_no_fractions_and_no_tests():
    # exact rational arithmetic is the tests' oracle; the package proves
    # in integers and evaluates in floats
    forbidden = {p.stem for p in (ROOT / "tests").glob("*.py")} | {"tests", "fractions"}
    for path in (ROOT / "src").rglob("*.py"):
        assert not {m for _, m, _ in imports(path.read_text())} & forbidden, path


def reaches(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` or anything in it, under any
    name, or reads an attribute of that name off another module
    (``scipy.sparse`` after ``import scipy``)."""
    last = module.rsplit(".", 1)[-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == last:
            return True
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            return True
    return False


def test_the_scan_sees_sparse_imports():
    for source in ("import scipy.sparse as sp\n", "from scipy import sparse\n",
                   "from scipy.sparse import csr_matrix\n", "import scipy.sparse.linalg\n",
                   "import scipy\nscipy.sparse.eye(2)\n"):
        assert reaches(source, "scipy.sparse"), source
    assert not reaches("import scipy\nfrom scipy.linalg import blas\nimport numpy as np\n",
                       "scipy.sparse")


def test_the_solver_reaches_no_sparse_matrices():
    # the direct solver reads the CSR chunks of rows handed to it and forms
    # no sparse matrix of its own
    assert not reaches((ROOT / "src" / "triharm" / "solver.py").read_text(), "scipy.sparse")
