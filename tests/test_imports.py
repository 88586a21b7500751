"""Every top-level import of the package is used, and so is every
top-level definition: scans of the modules' syntax trees for imported
names that no expression and no ``__all__`` entry reads, and for
functions, classes, assigned names and class methods that no module,
test or benchmark script reads, and for any float literal or call to
float, round or isclose in the package, so that no tolerance creeps in.
Importing the package and its CLI leaves out the stdlib modules it does
not need."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import macdunkl

PACKAGE = Path(macdunkl.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
REPO = Path(__file__).resolve().parent.parent
READERS = MODULES + [
    path for folder in ("tests", "perfbench") for path in sorted((REPO / folder).glob("*.py"))
]


def _imported_names(tree: ast.Module):
    """(bound name, line) of each top-level import, __future__ excluded."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _read_names(tree: ast.Module):
    """The names that expressions read, and the strings listed in
    ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return names


def test_the_scan_sees_every_module():
    names = {path.relative_to(PACKAGE).as_posix() for path in MODULES}
    assert {"__init__.py", "operators.py", "verify/typesums.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read_names(tree)
    unused = [(name, line) for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_scan_flags_an_unused_import():
    tree = ast.parse("from operator import add, sub\n\nx = add(1, 2)\n")
    assert [name for name, _ in _imported_names(tree) if name not in _read_names(tree)] == ["sub"]


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under node: as a name, an attribute, an
    imported name or an ``__all__`` entry."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            reads[sub.attr] += 1
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            reads.update(part for alias in sub.names for part in alias.name.split("."))
        elif isinstance(sub, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets
        ):
            reads.update(elt.value for elt in sub.value.elts if isinstance(elt, ast.Constant))
    return reads


def _definitions(tree: ast.Module):
    """(name, defining node) of each top-level function, class and assigned
    name; dunder names such as ``__all__`` are exempt."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and not (
                        sub.id.startswith("__") and sub.id.endswith("__")
                    ):
                        yield sub.id, node


def _methods(tree: ast.Module):
    """(name, defining node) of each method of each top-level class;
    dunder methods are exempt."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub.name, sub


def _dead_definitions(defining, readers, definitions=_definitions):
    """The definitions (top-level by default) of the defining trees that no
    reader tree reads outside the definition itself."""
    reads = Counter()
    for tree in readers:
        reads.update(_reads(tree))
    return [
        name
        for tree in defining
        for name, node in definitions(tree)
        if reads[name] <= _reads(node)[name]
    ]


def test_the_definition_scan_sees_tests_and_benchmarks():
    names = {path.relative_to(REPO).as_posix() for path in READERS}
    assert {"tests/test_imports.py", "perfbench/run.py", "src/macdunkl/cli.py"} <= names


def test_no_dead_top_level_definition():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in READERS]
    assert _dead_definitions(trees[: len(MODULES)], trees) == []


def test_the_scan_flags_a_dead_definition():
    tree = ast.parse(
        "def used():\n    return 1\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else used()\n\n"
        "class Gone:\n    pass\n\n"
        "def exported():\n    pass\n\n"
        "__all__ = ['exported']\n"
    )
    reader = ast.parse("import m\n\nm.used()\n")
    assert _dead_definitions([tree], [tree, reader]) == ["recursive", "Gone"]


def test_the_scan_flags_a_dead_assignment():
    tree = ast.parse(
        "READ, (UNREAD, PAIRED) = 1, (2, 3)\n"
        "ALIAS: int = READ\n"
        "__version__ = '1'\n"
    )
    reader = ast.parse("import m\n\nm.PAIRED\n")
    assert _dead_definitions([tree], [tree, reader]) == ["UNREAD", "ALIAS"]


def test_no_dead_method():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in READERS]
    assert _dead_definitions(trees[: len(MODULES)], trees, _methods) == []


def test_the_scan_flags_a_dead_method():
    tree = ast.parse(
        "class A:\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def recursive(self, k):\n        return self.recursive(k - 1) if k else 0\n\n"
        "    def gone(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    @staticmethod\n    def built():\n        return A()\n"
    )
    reader = ast.parse("import m\n\nm.A.built().used()\n")
    assert _dead_definitions([tree], [tree, reader], _methods) == ["recursive", "gone"]


def _inexact(tree: ast.AST):
    """(what, line) of each float literal and each call to float, round or
    isclose (bare or as an attribute, e.g. ``math.isclose``) under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            yield repr(node.value), node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("float", "round", "isclose"):
                yield name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_tolerance_anywhere(path):
    """The verifier is exact: no module under src/ holds a float literal or
    calls float, round or isclose."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_inexact(tree)) == [], path.name


def test_the_scan_flags_a_tolerance():
    tree = ast.parse(
        "import math\n\n"
        "x = 0.5 + 1 + float('2')\n"
        "y = round(x, 3) if math.isclose(x, 1e-9) else x.real\n"
        "z = 'float' + str(2)\n"
    )
    assert sorted(_inexact(tree)) == [
        ("0.5", 3), ("1e-09", 4), ("float", 3), ("isclose", 4), ("round", 4)
    ]


def test_importing_the_package_leaves_dataclasses_and_inspect_out():
    # together they are a third of the start-up time of a verify run
    code = (
        "import sys\n"
        "import macdunkl, macdunkl.cli, macdunkl.verify\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
