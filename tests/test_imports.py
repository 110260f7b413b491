"""Every import in the package is used in its module or listed in its
``__all__``, and every private definition is referenced in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hassett"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import chain, product as prod\n"
        "from math import gcd\n"
        "__all__ = ['gcd']\n"
        "os.path.join(*chain())\n",
        encoding="utf-8",
    )
    assert unused_imports(path) == ["prod"]


def unreferenced_private_names(paths) -> list[str]:
    """Private functions, classes and methods (one leading underscore)
    that no name, attribute or import anywhere in ``paths`` refers to."""
    defined: set[str] = set()
    referenced: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    return sorted(defined - referenced)


def test_every_private_definition_is_referenced():
    assert unreferenced_private_names(sorted(PACKAGE.glob("*.py"))) == []


def test_an_unreferenced_private_definition_is_found(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(
        "def _imported(): pass\n"
        "def _orphan(): pass\n"
        "class _Box:\n"
        "    def _read(self): pass\n"
        "    def _stale(self): pass\n"
        "    def __len__(self): return 0\n"
        "def public(): return _Box()._read()\n",
        encoding="utf-8",
    )
    second.write_text("from first import _imported\n", encoding="utf-8")
    assert unreferenced_private_names([first, second]) == ["_orphan", "_stale"]
