"""Named algebra/grading presets used throughout the test and demo suites.

Each preset fixes a simple Lie superalgebra, grading labels on the simple
roots (doubled integers) and the support of the nilpotent f (a set of
positive roots a, with f = sum of e_{-a}).
"""

from .errors import InputError
from .scalars import QQ, RationalFunctionField, read_rational
from .screening import ScreeningContext
from .superdata import build_osp, build_sl, good_grading

PRESETS = {
    # regular nilpotents: g_0 is the Cartan subalgebra
    "sl2-regular": ("sl", 2, {"a1": 2}, ["a1"]),
    "sl3-regular": ("sl", 3, {"a1": 2, "a2": 2}, ["a1", "a2"]),
    "osp1_2-regular": ("osp", 1, {"b1": 1}, ["2b1"]),
    "osp1_4-regular": ("osp", 2, {"b1": 2, "b2": 1}, ["b1", "2b2"]),
    "osp1_6-regular": ("osp", 3, {"b1": 2, "b2": 2, "b3": 1},
                       ["b1", "b2", "2b3"]),
    # subregular nilpotent of sl_n with the even grading (0,1,...,1):
    # g_0 = sl_2 + center, all screenings of degree one
    "sl3-subregular": ("sl", 3, {"a1": 0, "a2": 2}, ["a2"]),
    "sl4-subregular": ("sl", 4, {"a1": 0, "a2": 2, "a3": 2}, ["a2", "a3"]),
    # subregular nilpotent of sl_3 with the alternative good grading
    # (1/2, 1/2) for f = e_{-a1-a2}; g_0 = h, both screenings dressed
    "sl3-subregular-cartan": ("sl", 3, {"a1": 1, "a2": 1}, ["a1+a2"]),
}


def preset_names():
    return sorted(PRESETS)


def build_preset(name):
    """The good grading of a preset name; it carries its datum, restricted
    base, tau_k and chi."""
    try:
        kind, n, labels, support = PRESETS[name]
    except KeyError:
        raise InputError("unknown preset %r (known: %s)"
                         % (name, ", ".join(preset_names()))) from None
    datum = build_sl(n) if kind == "sl" else build_osp(n)
    return good_grading(datum, labels, support)


def level_field(level):
    """(field, k) for a level: Q(k) and its generator for "symbolic",
    else Q and the level (a numbers.Rational, or read_rational text) as a
    Rational; other text raises the InputError of the CLI."""
    if level == "symbolic":
        field = RationalFunctionField("k")
        return field, field.gen
    try:
        return QQ, (read_rational(level) if isinstance(level, str)
                    else QQ.lift(level))
    except (ValueError, ZeroDivisionError):
        raise InputError("--level must be \"symbolic\" or a rational p/q, "
                         "not %r" % level) from None


def preset_context(name, level="symbolic"):
    """A ScreeningContext at symbolic level k or a rational specialization."""
    return ScreeningContext(build_preset(name), *level_field(level))
