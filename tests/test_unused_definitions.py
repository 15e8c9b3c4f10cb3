"""Every function, method and class of the package is named again, and
every attribute it stores is read.

A definition that nothing names is dead code, and a deletion elsewhere
often leaves one behind.  This reads src/vertexscreen, demos and perfbench
with the standard-library ast and lists each function, method and class
defined in src/vertexscreen whose name no source names: as a name read, an
attribute, an imported name or a word of a string (perfbench wraps its
stages by dotted names such as "Module.word_coeff_state").  Docstrings do
not count, and dunder methods, which the language calls, are left out.
Likewise it lists each attribute src/vertexscreen stores (obj.name = ...)
that no source reads, as an attribute load or a word of a string: a copy
that only tests read.
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


def stored(source):
    """The attributes source stores, as obj.name = ... or obj.name += ..."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)}


def _words(tree):
    """The identifiers in the strings of tree, docstrings aside."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    return {word for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            for word in re.findall(r"[A-Za-z_]\w*", node.value)}


def names(source):
    """Every identifier source names, docstrings aside."""
    tree = ast.parse(source)
    out = _words(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def attribute_reads(source):
    """The attributes source loads, and the words of its strings."""
    tree = ast.parse(source)
    return _words(tree) | {node.attr for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute)
                           and isinstance(node.ctx, ast.Load)}


def unnamed(defining, readers):
    """The definitions of the source defining that no reader names, sorted."""
    named = set().union(*(names(r) for r in readers))
    return sorted(definitions(defining) - named)


def unread(defining, readers):
    """The attributes the source defining stores that no reader reads,
    sorted."""
    read = set().union(*(attribute_reads(r) for r in readers))
    return sorted(stored(defining) - read)


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


def test_finds_an_attribute_stored_and_never_read():
    source = ('class Model:\n'
              '    def __init__(self, gram):\n'
              '        self.used = 1\n'
              '        self.gram = gram\n'
              '        self.dead = [gram]\n'
              '        self.dead += [2]\n'
              '        self.traced = 3\n'
              '        self.spelled = 4\n'
              '        """spelled is named in a docstring only."""\n'
              '    def total(self, gram):\n'
              '        return self.used + getattr(self, "traced") + gram\n')
    assert unread(source, [source]) == ["dead", "gram", "spelled"]


@pytest.mark.parametrize("module", MODULES)
def test_module_stores_only_what_is_read(module):
    readers = [p.read_text() for p in READERS]
    assert unread((SRC / module).read_text(), readers) == []
