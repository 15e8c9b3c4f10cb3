"""Differential property tests of the Q(k) arithmetic and elimination step.

_reduce and p_gcd are checked against sympy, and p_gcd and _strip_polys
against the pseudo-remainder gcd _prs_gcd they replaced, also with the
heuristic gcd switched off so that its fallback runs.  The field operations
and lift, whose operands with denominator 1 or a constant denominator skip
_reduce, are checked against the general reduction RationalFunction(F, num,
den) of the textbook formula, against sympy.cancel and against the
canonical-form invariants, which include that denominator 1 is P_ONE;
p_mul with a constant operand is checked against the plain convolution.  The fraction-free step of
RationalFunctionField (strip_row, eliminate) is checked against the
quotient form it replaces, written out below on RationalFunctions: divide
the row by the pivot entry, subtract, clear denominators and strip the
common factor.  Both must agree up to a rational constant and record the
same common factors.  eliminate and _heu_gcd are also checked against
their earlier forms, copied below: the dense step and the gcd of every
value must give the same rows, factors and cofactors.  Rows and pairs whose first or shortest
entry has the largest norm, or whose entries carry a huge content, are
checked against the pseudo-remainder chain and the fallback, since the
heuristic's evaluation point comes from the shortest entry alone; p_content
against its earlier running loop; and p_mul and p_div_exact on trimmed
operands with interior zeros against the plain convolution and sympy.div.
The values over Q,
Rational, are checked against fractions.Fraction: every operation, with
int and Fraction operands on either side, gives the reduced value
Fraction gives, with the same ==, hash and str.
"""

from fractions import Fraction
from math import gcd

import pytest

from vertexscreen import scalars
from vertexscreen.scalars import (P_ONE, P_ZERO, QQ, Rational, RationalFunction,
                                  RationalFunctionField, _prs_gcd, _reduce,
                                  _strip_polys, p_content, p_div_exact, p_gcd,
                                  p_mul, p_neg, p_primitive, p_scale, p_sub)

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

F = RationalFunctionField("k")
K = sympy.Symbol("k")

def _trimmed(c):
    return tuple(c[:max((i + 1 for i, x in enumerate(c) if x), default=0)])


# integer polynomials of degree <= 2, low coefficient first, trimmed
polys = st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(_trimmed)
nonzero_polys = polys.filter(bool)
linear_factors = st.tuples(st.integers(-4, 4), st.integers(1, 3))


def _sym(a):
    return sum(c * K ** i for i, c in enumerate(a))


def _poly(expr):
    return tuple(int(c) for c in reversed(sympy.Poly(expr, K).all_coeffs()))


def _normalized(a):
    """The primitive part with positive leading coefficient."""
    a = p_primitive(a)
    return p_neg(a) if a[-1] < 0 else a


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(polys, nonzero_polys, st.lists(linear_factors, max_size=2),
                  st.integers(-5, 5).filter(bool))
def test_reduce_and_gcd_match_sympy(num, den, common, scale):
    for lin in common:
        num, den = p_mul(num, lin), p_mul(den, lin)
    num = p_mul(num, (scale,))
    n, d = _reduce(num, den)
    want_n, want_d = sympy.fraction(sympy.cancel(_sym(num) / _sym(den)))
    # canonical form: coprime, no common content, positive leading den
    assert sympy.expand(_sym(n) * want_d - _sym(d) * want_n) == 0
    assert sympy.gcd(_sym(n), _sym(d)).is_number
    assert d[-1] > 0
    if num:
        assert _normalized(p_gcd(num, den)) == p_gcd(num, den)
        assert p_gcd(num, den) == _normalized(
            _poly(sympy.gcd(_sym(num), _sym(den))))


# degree <= 4, coefficients all small or some at least 10**15
small_coeffs = st.integers(-6, 6)
wide_coeffs = st.one_of(small_coeffs, st.integers(10 ** 15, 10 ** 18),
                        st.integers(-10 ** 18, -10 ** 15))
wide_polys = st.one_of(*[st.lists(c, max_size=5).map(_trimmed)
                         for c in (small_coeffs, wide_coeffs)])
factors = st.one_of(*[st.lists(c, min_size=2, max_size=3).map(_trimmed)
                      for c in (small_coeffs, wide_coeffs)]).filter(
                          lambda a: len(a) > 1)


def _without_heuristic(f, *args):
    """f(*args) with the heuristic gcd failing, so the fallback runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "_heu_gcd", lambda polys: None)
        return f(*args)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(wide_polys, wide_polys, st.lists(factors, max_size=2),
                  st.sampled_from([1, -1, 6, -10 ** 15]))
@hypothesis.example((), (), [], 1)
@hypothesis.example((0, 4), (), [], -1)
@hypothesis.example((3,), (0, 0, 2), [], 1)
def test_gcd_matches_sympy_and_prs(a, b, common, scale):
    for f in common:
        a, b = p_mul(a, f), p_mul(b, f)
    a = p_scale(a, scale)
    g = p_gcd(a, b)
    assert g == _prs_gcd(a, b) == _without_heuristic(p_gcd, a, b)
    if a or b:
        assert g == _normalized(_poly(sympy.gcd(_sym(a), _sym(b))))
    else:
        assert g == P_ZERO
    if b:
        assert _reduce(a, b) == _without_heuristic(_reduce, a, b)


def _sparse(row):
    """A list row as the sparse row {column: entry} of the field's
    elimination step, its zeros dropped."""
    return {j: x for j, x in enumerate(row) if x}


def _dense(row, ncols, zero=P_ZERO):
    """A sparse row laid out as a list, for the list-row references."""
    return [row.get(j, zero) for j in range(ncols)]


def _chain_strip(row, sink):
    """_strip_polys as a pairwise chain of _prs_gcd from the lowest degree."""
    entries = [x for x in row if x]
    if not entries:
        return row
    g = min(entries, key=len)
    for x in entries:
        if len(g) == 1:
            break
        if x is not g:
            g = _prs_gcd(g, x)
    if len(g) > 1:
        sink.append(g)
        row = [p_div_exact(x, g) if x else x for x in row]
    c = gcd(*[c for x in row for c in x])
    if c > 1:
        row = [tuple(y // c for y in x) for x in row]
    return row


@st.composite
def poly_rows(draw):
    """A row with a planted common factor, zeros, and maybe a repeat.

    The repeat is the same tuple object as an earlier entry, so that a row
    whose nonzero entries are all one object is drawn too.
    """
    q = draw(st.one_of(factors, st.just(P_ONE)))
    row = [p_mul(q, x) for x in draw(st.lists(wide_polys, min_size=1,
                                              max_size=6))]
    if draw(st.booleans()):
        row.append(row[draw(st.integers(0, len(row) - 1))])
    return row


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(poly_rows())
@hypothesis.example([(), (3, -5, -2), ()])
@hypothesis.example([(3, -5, -2), (3, -5, -2)])
@hypothesis.example([(2, 4), (5,), (4, 8)])
def test_strip_polys_matches_pairwise_chain(row):
    sink, chain_sink, fallback_sink = [], [], []
    sparse = _sparse(row)
    got = _strip_polys(sparse, sink)
    assert all(got.values())
    assert _dense(got, len(row)) == _chain_strip(row, chain_sink)
    assert got == _without_heuristic(_strip_polys, sparse, fallback_sink)
    assert sink == chain_sink == fallback_sink
    if len({id(x) for x in row if x}) > 1:
        assert all(g[-1] > 0 for g in sink)


def _old_strip(row, sink):
    """Clear denominators of a RationalFunction row, strip its factor."""
    den = P_ONE
    for x in row:
        if x:
            den = p_mul(den, p_div_exact(x.den, p_gcd(den, x.den)))
    row = [x * RationalFunction(F, den, P_ONE) for x in row]
    g = None
    for x in row:
        if x:
            g = x.num if g is None else p_gcd(g, x.num)
    if g is not None and len(g) > 1:
        sink.append(g)
        row = [x / RationalFunction(F, g, P_ONE) for x in row]
    return row


def _same_up_to_constant(polyrow, row):
    """polyrow (integer polynomials) is c * row for a nonzero rational c."""
    assert [bool(x) for x in polyrow] == [bool(x) for x in row]
    if not any(row):
        return
    got = [RationalFunction(F, x, P_ONE) for x in polyrow]
    j = next(j for j, x in enumerate(row) if x)
    c = got[j] / row[j]
    assert F.as_rational(c) is not None
    assert got == [c * x for x in row]


@st.composite
def elimination_problems(draw):
    """Rows row, prow with prow[col] != 0 != row[col].

    row is s * prow + q * w for random polynomials s, q and row w, so that
    clearing row[col] leaves q * (w - (w[col]/prow[col]) prow), whose
    common factor includes q.  Entries of prow may carry denominators.
    """
    ncols = draw(st.integers(1, 5))
    col = draw(st.integers(0, ncols - 1))
    prow = draw(st.lists(st.tuples(polys, nonzero_polys), min_size=ncols,
                         max_size=ncols))
    prow = [RationalFunction(F, n, d) for n, d in prow]
    hypothesis.assume(prow[col])
    s, q = draw(polys), draw(nonzero_polys)
    w = draw(st.lists(polys, min_size=ncols, max_size=ncols))
    row = [RationalFunction(F, p_mul(q, x), P_ONE) + RationalFunction(
        F, s, P_ONE) * y for x, y in zip(w, prow)]
    hypothesis.assume(row[col])
    return row, prow, col


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(elimination_problems())
def test_eliminate_matches_quotient_form(problem):
    row, prow, col = problem
    new_sink, old_sink = [], []
    ncols = len(row)
    prow_poly = F.strip_row(dict(enumerate(prow)), new_sink)
    row_poly = F.strip_row(dict(enumerate(row)), new_sink)
    old_prow = _old_strip(prow, old_sink)
    old_row = _old_strip(row, old_sink)
    _same_up_to_constant(_dense(prow_poly, ncols), old_prow)
    _same_up_to_constant(_dense(row_poly, ncols), old_row)
    out = F.eliminate(row_poly, prow_poly, col, new_sink)
    # the quotient form, on the rows as the old strip left them
    f = old_row[col] / old_prow[col]
    ref = _old_strip([a - f * b for a, b in zip(old_row, old_prow)],
                     old_sink)
    assert col not in out and all(out.values())
    out = _dense(out, ncols)
    _same_up_to_constant(out, ref)
    assert [_normalized(g) for g in new_sink] == \
        [_normalized(g) for g in old_sink]
    assert all(type(x) is tuple and all(type(c) is int for c in x)
               for x in out)
    # a stripped nonzero row has no common factor, content included
    if any(out):
        assert sympy.gcd_list([_sym(x) for x in out if x]).is_number
        assert gcd(*[c for x in out for c in x]) == 1


def _old_heu_gcd(polys):
    """scalars._heu_gcd before it stopped at a one-digit running gcd: all
    values are read, then their gcd."""
    xi = 2 * min(max(map(abs, a)) for a in polys) + 29
    for _ in range(6):
        values = []
        for a in polys:
            acc = 0
            for c in reversed(a):
                acc = acc * xi + c
            values.append(acc)
        h = gcd(*values)
        g = []
        while h:
            c = h % xi
            if c > xi // 2:
                c -= xi
            g.append(c)
            h = (h - c) // xi
        if len(g) == 1:
            return P_ONE, polys
        g = p_primitive(tuple(g))
        try:
            return g, [p_div_exact(a, g) for a in polys]
        except ArithmeticError:
            xi = xi * 73794 // 27011
    return None


def _old_eliminate(row, prow, col, factor_sink=None):
    """RationalFunctionField.eliminate before it touched only nonzero
    entries: every column is scaled by the pivot cofactor, the subtraction
    builds -v * y for each nonzero column of prow, the pivot column too,
    on rows laid out as lists, stripped by _chain_strip."""
    p, v = prow[col], row[col]
    if len(p) > 1 and len(v) > 1:
        p, v = scalars._gcd_cofactors([p, v])[1]
    c = gcd(p_content(p), p_content(v))
    if c > 1:
        p = tuple(x // c for x in p)
        v = tuple(x // c for x in v)
    out = list(row) if p == P_ONE else [p_mul(p, x) for x in row]
    for j, y in enumerate(prow):
        if y:
            out[j] = p_sub(out[j], p_mul(v, y))
    return _chain_strip(out, factor_sink)


# a constant is a possible pivot; entries are mostly zero
nonzero_entries = st.one_of(st.integers(-6, 6).filter(bool).map(
    lambda c: (c,)), wide_polys.filter(bool))
sparse_entries = st.one_of(st.just(P_ZERO), st.just(P_ZERO), st.just(P_ZERO),
                           nonzero_entries)


@st.composite
def sparse_elimination_problems(draw):
    """List rows row, prow with row[col] and prow[col] nonzero, and maybe
    a column that is zero in both."""
    ncols = draw(st.integers(1, 8))
    col = draw(st.integers(0, ncols - 1))
    row = draw(st.lists(sparse_entries, min_size=ncols, max_size=ncols))
    prow = draw(st.lists(sparse_entries, min_size=ncols, max_size=ncols))
    row[col], prow[col] = draw(nonzero_entries), draw(nonzero_entries)
    q = draw(st.one_of(factors, st.just(P_ONE)))
    row = [p_mul(q, x) for x in row]
    zero_col = draw(st.integers(0, ncols - 1))
    if zero_col != col:
        row[zero_col] = prow[zero_col] = P_ZERO
    return row, prow, col


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(sparse_elimination_problems())
@hypothesis.example(([(3,), (), (1, 2)], [(2,), (), (0, 5)], 0))
@hypothesis.example(([(), (1, 1), (2, 2)], [(), (1,), ()], 1))
def test_eliminate_matches_dense_step(problem):
    """The step that scales only nonzero entries, negates once and sets
    the pivot column to zero returns the rows and records the factors of
    the dense step it replaced."""
    row, prow, col = problem
    ncols = len(row)
    row, prow = _strip_polys(_sparse(row)), _strip_polys(_sparse(prow))
    sink, old_sink = [], []
    out = F.eliminate(row, prow, col, sink)
    assert _dense(out, ncols) == _old_eliminate(
        _dense(row, ncols), _dense(prow, ncols), col, old_sink)
    assert sink == old_sink
    assert col not in out and all(out.values())


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.lists(factors, min_size=2, max_size=4),
                  st.one_of(factors, st.just(P_ONE)))
@hypothesis.example([(1, 1), (2, 1)], P_ONE)
@hypothesis.example([(0, 1), (0, 2)], P_ONE)
def test_heu_gcd_matches_full_evaluation(polys, q):
    """Stopping at a one-digit running gcd gives the answer of reading
    every value."""
    polys = [p_mul(q, a) for a in polys]
    assert scalars._heu_gcd(polys) == _old_heu_gcd(polys)


# rows whose first or shortest entry has the largest norm, or whose
# entries all carry a huge content: the heuristic gcd takes its evaluation
# point from the shortest entry alone, and the row content stops at 1
BIG = 10 ** 30
short_polys = st.lists(small_coeffs, min_size=1, max_size=4).map(
    _trimmed).filter(bool)


@st.composite
def lopsided_rows(draw):
    """Rows of 2 to 5 nonzero entries over a planted common factor: the
    shortest entry, first or last, is scaled by about 10**30, or every
    entry is scaled by a huge content."""
    q = draw(st.one_of(factors, st.just(P_ONE)))
    row = sorted(draw(st.lists(short_polys, min_size=2, max_size=5)), key=len)
    scale = draw(st.sampled_from([BIG, -BIG - 1, 6 * BIG]))
    if draw(st.booleans()):
        row[0] = p_scale(row[0], scale)
    else:
        row = [p_scale(x, 2 ** 100 * 3) for x in row]
    if draw(st.booleans()):
        row.reverse()
    return [p_mul(q, x) for x in row]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(lopsided_rows())
@hypothesis.example([(BIG, BIG), (1, 2, 1), (-1, 0, 1)])
@hypothesis.example([(3 << 100, 3 << 100), (0, 3 << 100)])
@hypothesis.example([(0, -BIG - 1), (0, 1, 1), (0, 0, 1)])
# a point read off the shortest entry's leading or smallest coefficient
# (31) would take the common factor k - 40 for a unit
@hypothesis.example([(-40, 1), (-40, -39, 1), (0, -40, 1)])
def test_lopsided_rows_match_the_prs_chain(row):
    """_strip_polys, p_gcd, _reduce, _heu_gcd and eliminate on rows and
    pairs whose first or shortest entry has the largest norm, or a huge
    content: the same rows, factors and cofactors as the pseudo-remainder
    chain and the fallback, with the same sink."""
    sparse = _sparse(row)
    sink, chain_sink, fallback_sink = [], [], []
    got = _strip_polys(sparse, sink)
    assert _dense(got, len(row)) == _chain_strip(row, chain_sink)
    assert got == _without_heuristic(_strip_polys, sparse, fallback_sink)
    assert sink == chain_sink == fallback_sink
    a, b = row[0], row[-1]
    g = p_gcd(a, b)
    assert g == _prs_gcd(a, b) == _without_heuristic(p_gcd, a, b)
    assert _reduce(a, b) == _without_heuristic(_reduce, a, b)
    heu = scalars._heu_gcd([a, b]) if len(a) > 1 < len(b) else None
    if heu is not None:
        assert heu == (g, [p_div_exact(a, g), p_div_exact(b, g)])
    # eliminate the first column of the row against the stripped pair
    # (a, b) as a pivot row
    prow = _strip_polys({0: a, 1: b})
    if 0 in prow:
        sink, fallback_sink = [], []
        out = F.eliminate(sparse, prow, 0, sink)
        assert out == _without_heuristic(F.eliminate, sparse, prow, 0,
                                         fallback_sink)
        assert sink == fallback_sink


@hypothesis.given(st.lists(st.one_of(st.just(0), wide_coeffs,
                                     st.integers(-BIG, BIG)), max_size=6))
@hypothesis.example([])
@hypothesis.example([0, 0])
@hypothesis.example([-4, 0, 6])
@hypothesis.example([-7])
def test_p_content_matches_the_running_loop(coeffs):
    g = 0
    for x in coeffs:
        g = gcd(g, abs(x))
    assert p_content(tuple(coeffs)) == g


# trimmed operands with interior zeros
gappy_polys = st.lists(st.one_of(st.just(0), st.just(0), small_coeffs,
                                 wide_coeffs), min_size=1,
                       max_size=7).map(_trimmed).filter(bool)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(gappy_polys, gappy_polys)
@hypothesis.example((1, 0, 0, 2), (0, 0, -3))
@hypothesis.example((5,), (0, 0, 0, 1))
def test_p_mul_and_p_div_exact_on_trimmed_operands(a, b):
    """Products and exact quotients of trimmed operands are the plain
    convolution and sympy's quotient, as trimmed tuples."""
    ab = p_mul(a, b)
    assert type(ab) is tuple and ab == _conv(a, b) and ab[-1]
    for x, y in ((a, b), (b, a)):
        got = p_div_exact(ab, y)
        quo, rem = sympy.div(sympy.Poly(_sym(ab), K), sympy.Poly(_sym(y), K))
        assert rem.is_zero
        assert type(got) is tuple and got[-1]
        assert got == x == _poly(quo.as_expr())
    if len(b) > 1:
        with pytest.raises(ArithmeticError):
            p_div_exact(scalars.p_add(ab, P_ONE), b)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(lopsided_rows())
def test_p_lcm_matches_sympy(row):
    """The lcm of two integer polynomials, content included, is sympy's
    up to sign."""
    a, b = row[0], row[-1]
    want = _poly(sympy.lcm(_sym(a), _sym(b)))
    assert scalars._p_lcm(a, b) in (want, p_neg(want))


def test_quo_is_a_reduced_rational_function():
    x = F.quo((2, 2), (0, 4))
    assert isinstance(x, RationalFunction)
    assert x == (F.gen + F.one) / (F.gen * F.lift(Fraction(2)))


def _conv(a, b):
    """Plain convolution of coefficient tuples, trimmed."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _sum(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def _assert_canonical(x):
    num, den = x.num, x.den
    assert type(num) is tuple and type(den) is tuple
    assert all(type(c) is int for c in num + den)
    assert den and den[-1] > 0
    assert not num or num[-1] != 0
    if den == P_ONE:
        # every value with denominator 1 shares the tuple P_ONE itself
        assert den is P_ONE
    if not num:
        assert den == P_ONE
        return
    assert gcd(*num, *den) == 1
    assert sympy.gcd(_sym(num), _sym(den)).is_number


def _value(x):
    return _sym(x.num) / _sym(x.den)


# operands: integer polynomials (denominator 1), constants with a
# non-unit denominator, polynomials over a constant denominator, one, zero
# and general quotients
operands = st.one_of(
    polys.map(lambda a: RationalFunction(F, a, P_ONE)),
    st.builds(lambda a, b: F.lift(Fraction(a, b)), st.integers(-9, 9),
              st.integers(2, 6)),
    st.builds(lambda a, d: RationalFunction(F, a, (d,)), polys,
              st.integers(2, 12)),
    st.just(F.one), st.just(F.zero),
    st.builds(lambda a, b: RationalFunction(F, a, b), polys, nonzero_polys))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(operands, operands)
def test_field_operations_match_general_reduction(x, y):
    xn, xd, yn, yd = x.num, x.den, y.num, y.den
    cross = _conv(xn, yd), _conv(yn, xd)
    want = {
        "+": RationalFunction(F, _sum(*cross), _conv(xd, yd)),
        "-": RationalFunction(F, _sum(cross[0], p_neg(cross[1])),
                              _conv(xd, yd)),
        "*": RationalFunction(F, _conv(xn, yn), _conv(xd, yd)),
        "neg": RationalFunction(F, p_neg(xn), xd),
    }
    got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x}
    if y:
        want["/"] = RationalFunction(F, _conv(xn, yd), _conv(xd, yn))
        got["/"] = x / y
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    ref = {"+": _value(x) + _value(y), "-": _value(x) - _value(y),
           "*": _value(x) * _value(y), "neg": -_value(x)}
    if y:
        ref["/"] = _value(x) / _value(y)
    for op, r in got.items():
        _assert_canonical(r)
        assert (r.num, r.den) == (want[op].num, want[op].den), op
        assert sympy.cancel(_value(r) - ref[op]) == 0, op
    # an int or Fraction operand is coerced through lift
    for c in (3, -1, 0, Fraction(-2, 3)):
        lc = RationalFunction(F, (c.numerator,), (c.denominator,))
        assert (x + c, c - x, x * c) == (x + lc, lc - x, x * lc)
        _assert_canonical(c - x)


@hypothesis.given(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                            st.fractions(max_denominator=50)))
def test_lift_matches_general_reduction(c):
    got = F.lift(c)
    fr = Fraction(c)
    _assert_canonical(got)
    assert (got.num, got.den) == _reduce((fr.numerator,), (fr.denominator,))
    assert F.as_rational(got) == fr


@hypothesis.given(st.integers(-5, 5), polys)
def test_p_mul_by_a_constant_matches_convolution(s, b):
    for a in ((s,), (0,)):
        assert p_mul(a, b) == _conv(a, b)
        assert p_mul(b, a) == _conv(a, b)
    if b:
        assert p_mul((1,), b) is b
    assert p_mul((1,), (0,)) == p_mul((0,), (1,)) == P_ZERO


# one, minus one and other constants, the operands the bracket engine
# multiplies by most
constants = st.one_of(
    st.just(F.one), st.just(F.lift(-1)),
    st.integers(-9, 9).map(F.lift),
    st.builds(lambda a, b: F.lift(Fraction(a, b)), st.integers(-9, 9),
              st.integers(2, 6)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(constants, operands, st.booleans())
def test_unit_and_constant_operands_match_general_reduction(c, x, flip):
    """+, - and * with a unit, -1 or constant operand on either side equal
    the general reduction; a unit factor hands back the other operand."""
    a, b = (x, c) if flip else (c, x)
    cross = _conv(a.num, b.den), _conv(b.num, a.den)
    den = _conv(a.den, b.den)
    want = {"+": RationalFunction(F, _sum(*cross), den),
            "-": RationalFunction(F, _sum(cross[0], p_neg(cross[1])), den),
            "*": RationalFunction(F, _conv(a.num, b.num), den)}
    got = {"+": a + b, "-": a - b, "*": a * b}
    for op, r in got.items():
        _assert_canonical(r)
        assert (r.num, r.den) == (want[op].num, want[op].den), op
    if c == F.one:
        assert a * b is (a if x == F.one else x)


@hypothesis.given(polys, polys)
def test_p_add_and_p_sub_match_coefficientwise_sums(a, b):
    assert scalars.p_add(a, b) == _trimmed(_sum(a, b))
    assert scalars.p_sub(a, b) == _trimmed(_sum(a, p_neg(b)))


def test_lift_of_one_is_the_field_one():
    assert F.lift(1) is F.one
    assert F.lift(Fraction(1)) == F.one


def test_mixed_fields_raise():
    G = RationalFunctionField("s")
    for x in (F.one, F.gen, F.gen / (F.gen + 1)):
        for y in (G.one, G.gen, G.gen / (G.gen + 1)):
            for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
                with pytest.raises(TypeError):
                    getattr(x, op)(y)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.lists(st.tuples(nonzero_polys,
                                     st.lists(linear_factors, max_size=2),
                                     st.integers(1, 3),
                                     st.sampled_from([1, -1, 6, -4])),
                           max_size=4),
                  st.lists(st.tuples(polys, nonzero_polys), max_size=2))
def test_denominators_of_polys_match_unit_inversion(specs, quotients):
    """denominators(values, polys) equals denominators of values and of
    each 1/p, the unit of a stripped row divided by p: on constants,
    negative leading coefficients and repeated factors."""
    polys_ = []
    for base, common, reps, scale in specs:
        p = p_mul(base, (scale,))
        for lin in common:
            for _ in range(reps):
                p = p_mul(p, lin)
        polys_.append(p)
    values = [RationalFunction(F, a, b) for a, b in quotients]
    unit = F.strip_row({0: F.one})[0]
    want = F.denominators(values + [F.quo(unit, p) for p in polys_])
    assert F.denominators(values, polys_) == want


# Fractions whose numerators and denominators are zero, +-1 or small far
# more often than chance, so that denominator 1 and equal denominators,
# the short paths of Rational, come up in most draws
q_nums = st.one_of(st.sampled_from([0, 1, -1, 2, -3, 6]),
                   st.integers(-10 ** 20, 10 ** 20))
q_dens = st.one_of(st.sampled_from([1, 1, 2, 3, 6]),
                   st.integers(1, 10 ** 12))
q_values = st.builds(Fraction, q_nums, q_dens)


def _assert_rational(x, want):
    """x is the reduced Rational of the Fraction want, and agrees with it."""
    assert type(x) is Rational
    assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
    assert x == want and want == x and not x != want
    assert hash(x) == hash(want) and str(x) == str(want)
    assert bool(x) == bool(want) and int(x) == int(want)
    assert Fraction(x) == want and type(Fraction(x)) is Fraction


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(q_values, q_values, st.booleans(),
                  st.sampled_from(["Q", "int", "Fraction"]), st.booleans())
def test_rational_operations_match_fraction(a, b, same_den, kind, flip):
    """+, -, * and / of a Rational with a Rational, an int or a Fraction,
    on either side, give what Fraction gives; so do -, ==, < and hash."""
    if same_den:
        b = Fraction(b.numerator, a.denominator)
    if kind == "int":
        b = Fraction(b.numerator)
    other = {"Q": QQ.lift(b), "int": b.numerator, "Fraction": b}[kind]
    x, y = (other, QQ.lift(a)) if flip else (QQ.lift(a), other)
    fx, fy = (b, a) if flip else (a, b)
    _assert_rational(QQ.lift(a), a)
    _assert_rational(-QQ.lift(a), -a)
    _assert_rational(x + y, fx + fy)
    _assert_rational(x - y, fx - fy)
    _assert_rational(x * y, fx * fy)
    if fy:
        _assert_rational(x / y, fx / fy)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y, x < y, x <= y, x > y, x >= y) == \
        (fx == fy, fx < fy, fx <= fy, fx > fy, fx >= fy)
    assert len({QQ.lift(a), a}) == 1


@hypothesis.given(st.integers(-10 ** 30, 10 ** 30), st.integers(
    -10 ** 30, 10 ** 30).filter(bool))
def test_quo_is_the_reduced_fraction(a, b):
    _assert_rational(QQ.quo(a, b), Fraction(a, b))


def test_lift_takes_exact_rationals_only():
    """Both fields lift ints, Rationals and Fractions exactly and refuse a
    float (whose binary expansion is no rational the caller meant), a
    string and None with the same TypeError."""
    assert QQ.lift(1) is QQ.one
    assert QQ.lift(QQ.one) is QQ.one
    _assert_rational(QQ.zero, Fraction(0))
    _assert_rational(QQ.lift(Fraction(-6, 4)), Fraction(-3, 2))
    assert F.lift(1) is F.one
    for x in (Fraction(-6, 4), QQ.lift(Fraction(-6, 4)), -3, 0, True):
        got = F.lift(x)
        _assert_canonical(got)
        assert F.as_rational(got) == Fraction(x)
    for field in (QQ, F):
        for bad in (0.1, 0.5, 1.0, "1/2", "3", None):
            with pytest.raises(TypeError, match="exact rationals"):
                field.lift(bad)
    with pytest.raises(ZeroDivisionError):
        QQ.quo(1, 0)
