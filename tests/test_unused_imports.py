"""No module of the package imports a name it never uses.

A deletion often leaves its imports behind; this reads each module of
src/vertexscreen with the standard-library ast and lists every imported
name that no expression of the module reads.  The package __init__ only
re-exports, so it is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexscreen"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_finds_an_unused_import():
    source = ("from fractions import Fraction\n"
              "from .scalars import QQ, lift as up\n"
              "import os.path\n"
              "x = QQ\n")
    assert unused_imports(source) == ["Fraction", "os", "up"]


def test_reads_through_attributes_and_local_imports():
    source = ("import math\n"
              "def f():\n"
              "    from itertools import combinations\n"
              "    return math.pi, combinations\n")
    assert unused_imports(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    assert unused_imports((SRC / module).read_text()) == []
