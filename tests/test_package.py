"""The package's export list: every listed name exists, once; and no
module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import graftkit

# __init__.py imports names to export them, so it is left out
MODULES = sorted(path for path in Path(graftkit.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


class TestExportList:
    def test_every_name_resolves(self):
        missing = [name for name in graftkit.__all__
                   if not hasattr(graftkit, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(set(graftkit.__all__)) == len(graftkit.__all__)

    def test_star_import(self):
        namespace = {}
        exec("from graftkit import *", namespace)
        assert set(graftkit.__all__) <= set(namespace)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_oracle_imports_no_closed_form():
    """grid_oracle is an independent check: from the package it imports
    only the error classes and torus's Mode and TorusClass, never a
    closed form of torus, nor surface or complex_graph."""
    path = Path(graftkit.__file__).parent / "grid_oracle.py"
    package = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "graftkit"
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert node.module.split(".")[0] != "graftkit"
            else:
                package.setdefault(node.module, set()).update(
                    alias.name for alias in node.names)
    assert set(package) <= {"errors", "torus"}
    assert package.get("torus", set()) <= {"Mode", "TorusClass"}
