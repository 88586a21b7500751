"""Every top-level import of the package is used: a scan of each module's
syntax tree for imported names that no expression and no ``__all__``
entry reads."""

import ast
from pathlib import Path

import pytest

import macdunkl

PACKAGE = Path(macdunkl.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


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
