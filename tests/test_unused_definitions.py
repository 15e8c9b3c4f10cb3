"""Every function, method and class of the package is named again.

A definition that nothing names is dead code, and a deletion elsewhere
often leaves one behind.  This reads src/vertexscreen, demos and perfbench
with the standard-library ast and lists each function, method and class
defined in src/vertexscreen whose name no source names: as a name read, an
attribute, an imported name or a word of a string (perfbench wraps its
stages by dotted names such as "Module.word_coeff_state").  Docstrings do
not count, and dunder methods, which the language calls, are left out.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vertexscreen"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
READERS = [p for d in (SRC, ROOT / "demos", ROOT / "perfbench")
           for p in sorted(d.glob("*.py"))]


def definitions(source):
    """The functions, methods and classes source defines, dunders aside."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def names(source):
    """Every identifier source names, docstrings aside."""
    tree = ast.parse(source)
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def unnamed(defining, readers):
    """The definitions of the source defining that no reader names, sorted."""
    named = set().union(*(names(r) for r in readers))
    return sorted(definitions(defining) - named)


def test_finds_an_unnamed_definition():
    source = ('class Used:\n'
              '    def helper(self):\n'
              '        return 1\n'
              '    def __repr__(self):\n'
              '        return "Used"\n'
              'def dead():\n'
              '    """dead is named in its docstring only."""\n'
              'def traced():\n'
              '    pass\n'
              'def exported():\n'
              '    pass\n'
              'HOOKS = ["mod.traced"]\n'
              'x = Used().helper()\n')
    assert unnamed(source, [source]) == ["dead", "exported"]
    assert unnamed(source, [source, "from .mod import exported\n"]) == \
        ["dead"]


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_only_what_is_named(module):
    readers = [p.read_text() for p in READERS]
    assert unnamed((SRC / module).read_text(), readers) == []
