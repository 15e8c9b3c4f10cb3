"""Differential property tests of the elimination core against sympy."""

from fractions import Fraction

import pytest

from vertexscreen.linalg import decompose, matrix_rank, nullspace
from vertexscreen.scalars import QQ, RationalFunctionField

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies
DomainMatrix = sympy.polys.matrices.DomainMatrix

K_SYM = sympy.Symbol("k")
F = RationalFunctionField("k")
# a rational with a small denominator and a numerator up to 10**20, or
# zero two times in three, so that the matrices come out sparse
RATIONALS = st.tuples(st.integers(0, 2),
                      st.builds(Fraction, st.integers(-10**20, 10**20),
                                st.integers(1, 7))) \
    .map(lambda t: t[1] if t[0] == 0 else Fraction(0))
# each field with its sympy counterpart and a strategy for its entries:
# sparse rationals over Q, integer polynomials of degree <= 1 over Q(k)
FIELDS = {
    "Q": (QQ, sympy.QQ, RATIONALS),
    "Q(k)": (F, sympy.QQ.frac_field(K_SYM),
             st.tuples(st.integers(-2, 2), st.integers(-2, 2))
             .map(lambda ab: F.lift(ab[0]) + F.lift(ab[1]) * F.gen)),
}


def _to_sympy(x, dom):
    if isinstance(x, Fraction):
        return dom.convert(sympy.Rational(x.numerator, x.denominator))
    num = sum(c * K_SYM ** i for i, c in enumerate(x.num))
    den = sum(c * K_SYM ** i for i, c in enumerate(x.den))
    return dom.convert(num / den)


def _matrix(rows, ncols, dom):
    return DomainMatrix([[_to_sympy(x, dom) for x in row] for row in rows],
                        (len(rows), ncols), dom)


@st.composite
def problems(draw):
    """(field name, rows, ncols, extra targets), up to 6 x 6."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    entries = FIELDS[name][2]
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    targets = draw(st.lists(st.lists(entries, min_size=nrows,
                                     max_size=nrows), max_size=2))
    return name, rows, ncols, targets


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(problems())
def test_rank_and_nullspace_match_sympy(problem):
    name, rows, ncols, _ = problem
    field, dom, _ = FIELDS[name]
    ref = _matrix(rows, ncols, dom)
    assert matrix_rank(rows, ncols, field) == ref.rank()
    # the basis normalized on the free coordinates is unique: read it off
    # sympy's reduced row echelon form
    rref, pivots = ref.rref()
    rref = rref.to_list()
    expected = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [dom.zero] * ncols
        v[fc] = dom.one
        for i, pc in enumerate(pivots):
            v[pc] = -rref[i][fc]
        expected.append(v)
    got = nullspace(rows, ncols, field)
    assert [[_to_sympy(x, dom) for x in v] for v in got] == expected


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(problems(), st.lists(st.integers(-2, 2), min_size=6,
                                       max_size=6))
def test_decompose_matches_sympy(problem, mix):
    name, rows, ncols, targets = problem
    field, dom, _ = FIELDS[name]
    family = [list(col) for col in zip(*rows)]
    # one target inside the span besides the random ones
    inside = [field.zero] * len(rows)
    for c, v in zip(mix, family):
        inside = [a + field.lift(c) * b for a, b in zip(inside, v)]
    targets = targets + [inside]
    ref = _matrix(rows, ncols, dom)
    got = decompose(family, targets, field)
    if ref.rank() < ncols:
        assert got is None
        return
    assert len(got) == len(targets)
    for t, coords in zip(targets, got):
        col = _matrix([[x] for x in t], 1, dom)
        if ref.hstack(col).rank() > ncols:
            assert coords is None
        else:
            assert coords is not None
            assert ref * _matrix([[c] for c in coords], 1, dom) == col
    assert got[-1] == [field.lift(c) for c in mix[:ncols]]
