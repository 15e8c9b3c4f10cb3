"""Rational is the engine's one rational type.

Every rational a datum, a grading or a root finder hands out is a
scalars.Rational; fractions.Fraction is imported only by the two readers
of outside text, presets.level_field and the datum loader.  The
numbers.Rational boundary of scalars stays: a Fraction, or the Rational of
a second import of the module, still compares and hashes as the Rational
it equals.
"""

import ast
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from vertexscreen import scalars
from vertexscreen.presets import build_preset, preset_names
from vertexscreen.scalars import (QQ, Rational, RationalFunctionField,
                                  p_mul, p_rational_roots)
from vertexscreen.superdata import datum_from_json, datum_to_json

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexscreen"


def _datum_rationals(datum):
    """Every structure constant, form entry, root coordinate and Killing
    form value of datum, and its h_dual."""
    yield from (c for comb in datum.sc.values() for c in comb.values())
    yield from (x for row in datum.form for x in row)
    yield from (c for r in datum.roots for c in r.coords)
    yield from (x for row in datum.killing_matrix() for x in row)
    yield datum.dual_coxeter()


def _grading_rationals(grading):
    """Those of its datum, then its tau pairs, g_0 Killing form, h_dual and
    chi values."""
    datum, lf = grading.datum, grading.levelform
    yield from _datum_rationals(datum)
    yield from (x for i in range(datum.nbasis) for j in range(datum.nbasis)
                for x in lf.tau_pair(i, j))
    yield from (x for row in lf.killing_g0 for x in row)
    yield lf.h_dual
    yield from grading.chi.values


@pytest.mark.parametrize("name", preset_names())
def test_every_datum_value_is_a_rational(name):
    grading = build_preset(name)
    loaded = datum_from_json(json.loads(json.dumps(
        datum_to_json(grading.datum))))
    for x in (*_grading_rationals(grading), *_datum_rationals(loaded)):
        assert type(x) is Rational, (x, type(x))


def test_roots_are_rationals():
    F = RationalFunctionField("k")
    a = p_mul(p_mul((3, 2), (-1, 7)), (5, 0, 1))   # (2k+3)(7k-1)(k^2+5)
    x = F.one / F.quo(a, (1,))
    assert p_rational_roots(a) == {Fraction(-3, 2), Fraction(1, 7)}
    found = (*p_rational_roots(a), *F.denominators((x,), (a,))[1],
             *F.denominator_roots(x))
    assert found and all(type(r) is Rational for r in found)


def _imports_fractions(node):
    if isinstance(node, ast.ImportFrom):
        return node.module == "fractions"
    return isinstance(node, ast.Import) and \
        any(alias.name == "fractions" for alias in node.names)


def test_only_the_readers_import_fractions():
    importers = {path.name for path in SRC.glob("*.py")
                 if any(map(_imports_fractions,
                            ast.walk(ast.parse(path.read_text()))))}
    assert importers == {"presets.py", "superdata.py"}


def test_evaluate_gives_a_rational_and_refuses_a_float():
    F = RationalFunctionField("k")
    x = (F.gen + 1) / (F.gen + 2)
    for at in (0, Fraction(1, 2), QQ.quo(1, 2)):
        got = x.evaluate(at)
        assert type(got) is Rational and got == Fraction(at + 1, at + 2)
    with pytest.raises(TypeError, match="exact rationals"):
        x.evaluate(0.5)


def test_the_numbers_rational_boundary_holds_across_imports():
    """A second import of scalars has its own Rational class; values of
    the two classes and Fractions still agree in == and hash, and
    evaluate reads a Fraction, as a benchmark oracle comparing two imports
    of the package needs."""
    spec = importlib.util.spec_from_file_location("scalars_again",
                                                  scalars.__file__)
    again = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(again)
    assert again.Rational is not Rational
    for n, d in ((7, 2), (-1, 2), (3, 1), (0, 1), (-5, 3)):
        a, b, f = QQ.quo(n, d), again.QQ.quo(n, d), Fraction(n, d)
        assert a == b and b == a and a == f and f == a and b == f
        assert hash(a) == hash(b) == hash(f)
        assert len({a, b, f}) == 1
        assert type(a + b) is Rational and a + b == 2 * f
        assert QQ.lift(b) == a and type(QQ.lift(b)) is Rational
    F = RationalFunctionField("k")
    assert F.gen.evaluate(Fraction(7, 2)) == QQ.quo(7, 2)
    assert F.gen.evaluate(again.QQ.quo(7, 2)) == QQ.quo(7, 2)
    assert F.lift(again.QQ.quo(7, 2)) == F.lift(QQ.quo(7, 2))
