"""Differential property tests of the elimination core against sympy,
and of row_reduce against the list-row elimination it replaced."""

from fractions import Fraction
from math import gcd, lcm

import pytest

from vertexscreen import linalg
from vertexscreen.linalg import (P, decompose, matrix_rank, nullspace,
                                 rank_mod_p, row_reduce)
from vertexscreen.presets import preset_context
from vertexscreen.scalars import (P_ONE, P_ZERO, QQ, Rational,
                                  RationalFunctionField, _gcd_cofactors,
                                  _p_lcm, p_add, p_content, p_div_exact,
                                  p_mul, p_neg)
from vertexscreen.screening import (exponential_screenings,
                                    generic_screenings, kernel_basis)

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
    # a value over Q (Rational) or an input entry (Fraction)
    if isinstance(x, (Rational, Fraction)):
        return dom.convert(sympy.Rational(x.numerator, x.denominator))
    num = sum(c * K_SYM ** i for i, c in enumerate(x.num))
    den = sum(c * K_SYM ** i for i, c in enumerate(x.den))
    return dom.convert(num / den)


def _matrix(rows, ncols, dom):
    """sympy's (sparse) DomainMatrix of sparse rows {column: entry}."""
    nonzero = {i: {j: _to_sympy(x, dom) for j, x in row.items() if x}
               for i, row in enumerate(rows)}
    return DomainMatrix({i: row for i, row in nonzero.items() if row},
                        (len(rows), ncols), dom)


def _rows(entries, ncols, min_size, max_size):
    """Sparse rows over ncols columns, drawn as lists of entries of which
    the zeros are not stored."""
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols)
                    .map(lambda r: {j: x for j, x in enumerate(r) if x}),
                    min_size=min_size, max_size=max_size)


def _rref_basis(ref, ncols, dom):
    """The kernel basis normalized on the free coordinates, which is
    unique: read off sympy's reduced row echelon form of ref."""
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
    return expected


@st.composite
def problems(draw):
    """(field name, sparse rows, ncols, extra targets), up to 6 x 6; the
    targets are sparse vectors on the rows."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    entries = FIELDS[name][2]
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    rows = draw(_rows(entries, ncols, nrows, nrows))
    targets = draw(_rows(entries, nrows, 0, 2))
    return name, rows, ncols, targets


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(problems())
def test_rank_and_nullspace_match_sympy(problem):
    name, rows, ncols, _ = problem
    field, dom, _ = FIELDS[name]
    ref = _matrix(rows, ncols, dom)
    assert matrix_rank(rows, ncols, field) == ref.rank()
    # the shared modular echelon at one level; it can fall short of the
    # rank only when P divides a nonzero minor (or, over Q(k), the minor's
    # value at k0), which no drawn entries come near
    assert rank_mod_p(rows, ncols, field, 1234567) == ref.rank()
    got = nullspace(rows, ncols, field)
    assert [[_to_sympy(x, dom) for x in v] for v in got] == \
        _rref_basis(ref, ncols, dom)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(problems(), st.lists(st.integers(-2, 2), min_size=6,
                                       max_size=6))
def test_decompose_matches_sympy(problem, mix):
    name, rows, ncols, targets = problem
    field, dom, _ = FIELDS[name]
    family = [{i: row[j] for i, row in enumerate(rows) if j in row}
              for j in range(ncols)]
    # one target inside the span besides the random ones
    inside = {}
    for c, v in zip(mix, family):
        for i, x in v.items():
            inside[i] = inside.get(i, field.zero) + field.lift(c) * x
    targets = targets + [inside]
    ref = _matrix(rows, ncols, dom)
    got = decompose(family, targets, field)
    if ref.rank() < ncols:
        assert got is None
        return
    assert len(got) == len(targets)
    for t, coords in zip(targets, got):
        col = _matrix([{0: t[i]} if i in t else {}
                       for i in range(len(rows))], 1, dom)
        if ref.hstack(col).rank() > ncols:
            assert coords is None
        else:
            assert coords is not None
            assert ref * _matrix([{0: c} for c in coords], 1, dom) == col
    assert got[-1] == [field.lift(c) for c in mix[:ncols]]


# sparse ints up to 10**6 or Fractions with small denominators: kernels
# within the reconstruction bound and, on denser draws, beyond it
Q_ENTRIES = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 30)))
SPARSE_Q = st.tuples(st.integers(0, 2), Q_ENTRIES) \
    .map(lambda t: Fraction(t[1]) if t[0] == 0 else Fraction(0))


def _sympy_nullspace(rows, ncols):
    """sympy's nullspace basis of sparse rows as lists of Fractions."""
    ref = sympy.zeros(len(rows), ncols)
    for i, row in enumerate(rows):
        for j, x in row.items():
            ref[i, j] = sympy.Rational(x.numerator, x.denominator)
    return [[Fraction(int(x.p), int(x.q)) for x in v]
            for v in ref.nullspace()]


def _fallback_nullspace(rows, ncols):
    """nullspace over Q with the modular path forced to fail."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_modular_nullspace", lambda *args: None)
        return nullspace(rows, ncols, QQ)


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(st.integers(1, 8).flatmap(lambda ncols: st.tuples(
    st.just(ncols), _rows(SPARSE_Q, ncols, 1, 8))))
def test_certified_nullspace_matches_fallback_and_sympy(problem):
    ncols, rows = problem
    expected = _fallback_nullspace(rows, ncols)
    assert expected == _sympy_nullspace(rows, ncols)
    certified = linalg._modular_nullspace(rows, ncols, QQ)
    if certified is not None:
        assert certified == expected
        assert all(type(x) is Rational for v in certified for x in v)
    assert nullspace(rows, ncols, QQ) == expected


# the entries of drawn sparse rows, a stored zero among them now and then
SPARSE_ENTRIES = {"Q": Q_ENTRIES.map(Fraction), "Q(k)": FIELDS["Q(k)"][2]}


@st.composite
def sparse_problems(draw):
    """(field name, sparse rows, ncols): up to 6 rows over up to 6 columns
    (ncols may be 0), each a dict built in a drawn key order.  A row may
    be empty or store a zero, and the columns of a drawn set are zero."""
    name = draw(st.sampled_from(sorted(SPARSE_ENTRIES)))
    ncols = draw(st.integers(0, 6))
    dead = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
    live = [j for j in range(ncols) if j not in dead]
    cells = st.lists(st.one_of(st.none(), SPARSE_ENTRIES[name]),
                     min_size=len(live), max_size=len(live))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        order = draw(st.permutations(live))
        rows.append({j: x for j, x in zip(order, draw(cells))
                     if x is not None})
    return name, rows, ncols


# The list-row elimination that row_reduce replaced, kept as a reference:
# row_reduce and each field's strip_row and eliminate as they were on rows
# laid out as lists, zeros stored.

def _list_strip_q(row, factor_sink=None):
    den = lcm(*[x.denominator for x in row])
    row = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _list_eliminate_q(row, prow, col, factor_sink=None):
    p, v = prow[col], row[col]
    g = gcd(p, v)
    a, b = p // g, v // g
    if a < 0:
        a, b = -a, -b
    out = [a * x for x in row] if a != 1 else list(row)
    for j, y in enumerate(prow):
        if y:
            out[j] -= b * y
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _list_strip_polys(row, factor_sink=None):
    entries = [x for x in row if x]
    if not entries:
        return row
    g = min(entries, key=len)
    if len(g) > 1:
        if any(x is not g for x in entries):
            g, entries = _gcd_cofactors(entries)
        else:
            entries = [P_ONE] * len(entries)
        if len(g) > 1:
            if factor_sink is not None:
                factor_sink.append(g)
            quotients = iter(entries)
            row = [next(quotients) if x else x for x in row]
    c = gcd(*[c for x in row for c in x])
    if c > 1:
        row = [tuple(y // c for y in x) if x else x for x in row]
    return row


def _list_strip_qk(row, factor_sink=None):
    den = P_ONE
    for x in row:
        if x:
            den = _p_lcm(den, x.den)
    return _list_strip_polys([x.num if not x or x.den == den
                              else p_mul(x.num, p_div_exact(den, x.den))
                              for x in row], factor_sink)


def _list_eliminate_qk(row, prow, col, factor_sink=None):
    p, v = prow[col], row[col]
    if len(p) > 1 and len(v) > 1:
        p, v = _gcd_cofactors([p, v])[1]
    c = gcd(p_content(p), p_content(v))
    if c > 1:
        p = tuple(x // c for x in p)
        v = tuple(x // c for x in v)
    out = list(row) if p == P_ONE else \
        [p_mul(p, x) if x else x for x in row]
    v = p_neg(v)
    for j, y in enumerate(prow):
        if y and j != col:
            out[j] = p_add(out[j], p_mul(v, y))
    out[col] = P_ZERO
    return _list_strip_polys(out, factor_sink)


# per field: the steps on list rows and the zero of a stripped row
LIST_STEPS = {"Q": (_list_strip_q, _list_eliminate_q, 0),
              "Q(k)": (_list_strip_qk, _list_eliminate_qk, P_ZERO)}


def _list_row_reduce(rows, ncols, name, pivot_sink=None, stripped=None):
    strip_row, eliminate, _ = LIST_STEPS[name]
    rows = [strip_row(list(r), pivot_sink) for r in rows]
    if stripped is not None:
        stripped.extend(rows)
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        if pivot_sink is not None:
            pivot_sink.append(pval)
        for i in range(len(rows)):
            if i == rank:
                continue
            if rows[i][col]:
                rows[i] = eliminate(rows[i], prow, col, pivot_sink)
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _list_reference(rows, ncols, name, pivot_sink=None, stripped=None):
    """_list_row_reduce on sparse rows laid out as lists."""
    zero = FIELDS[name][0].zero
    return _list_row_reduce([[row.get(j, zero) for j in range(ncols)]
                             for row in rows], ncols, name, pivot_sink,
                            stripped)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(sparse_problems())
def test_row_reduce_matches_list_row_reference(problem):
    """On sparse rows row_reduce takes the pivot path of the list-row
    elimination: the same pivot columns, the same stripped and echelon
    rows, with no stored zeros, and the same pivot_sink, in order."""
    name, rows, ncols = problem
    field, zero = FIELDS[name][0], LIST_STEPS[name][2]
    sink, stripped, want_sink, want_stripped = [], [], [], []
    reduced, pivots = row_reduce(rows, ncols, field, pivot_sink=sink,
                                 stripped=stripped)
    want_rows, want_pivots = _list_reference(
        rows, ncols, name, pivot_sink=want_sink, stripped=want_stripped)
    assert pivots == want_pivots
    for got, want in ((reduced, want_rows), (stripped, want_stripped)):
        assert all(x for r in got for x in r.values())
        assert [[r.get(j, zero) for j in range(ncols)] for r in got] == want
    assert sink == want_sink


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(sparse_problems())
def test_sparse_rows_match_sympy_and_densified_rows(problem):
    """nullspace on sparse rows gives sympy's rank and kernel basis; with
    the first rational reconstruction made to fail it falls back to
    row_reduce and gives the same basis, and its pivot_sink then holds
    what the list-row elimination gives on the rows laid out as lists
    (over Q a certified answer leaves it empty)."""
    name, rows, ncols = problem
    field, dom, _ = FIELDS[name]
    ref = _matrix(rows, ncols, dom)
    rank = ref.rank()
    assert matrix_rank(rows, ncols, field) == rank
    assert rank_mod_p(rows, ncols, field, 1234567) == rank
    got = nullspace(rows, ncols, field)
    assert len(got) == ncols - rank
    assert [[_to_sympy(x, dom) for x in v] for v in got] == \
        _rref_basis(ref, ncols, dom)
    reconstructed, reduced, sink = [], [], []
    reconstruct, inner = linalg._reconstruct, linalg.row_reduce

    def once(a):
        reconstructed.append(a)
        return None if len(reconstructed) == 1 else reconstruct(a)

    def counted(*args, **kwargs):
        reduced.append(args)
        return inner(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_reconstruct", once)
        mp.setattr(linalg, "row_reduce", counted)
        assert nullspace(rows, ncols, field, pivot_sink=sink) == got
    if field is not QQ or reconstructed:
        assert len(reduced) == (1 if ncols else 0)
    expected = []
    _list_reference(rows, ncols, name, pivot_sink=expected)
    assert sink == (expected if reduced else [])


def _echelon_first_row(sparse, ncols):
    """_echelon_mod_p with the pivot of each column taken from the first
    row that holds it, as it was taken before the shortest row."""
    pivots, tails = [], []
    for col in range(ncols):
        for i, r in enumerate(sparse):
            if col in r:
                break
        else:
            continue
        prow = sparse.pop(i)
        inv = pow(prow.pop(col), -1, P)
        tail = [(j, y * inv % P) for j, y in prow.items()]
        for r in sparse:
            v = r.pop(col, 0)
            if v:
                for j, y in tail:
                    x = (r.get(j, 0) - v * y) % P
                    if x:
                        r[j] = x
                    else:
                        del r[j]
        pivots.append(col)
        tails.append(tail)
    return pivots, tails


@st.composite
def markowitz_problems(draw):
    """(ncols, sparse rows) whose first row holds every column and some
    later row holds column 0 and at most one other column: the first row
    holding column 0 is not the shortest one."""
    ncols = draw(st.integers(3, 9))
    nonzero = Q_ENTRIES.map(Fraction).filter(bool)
    first = dict(enumerate(draw(st.lists(nonzero, min_size=ncols,
                                         max_size=ncols))))
    short = {0: draw(nonzero)}
    short[draw(st.integers(0, ncols - 1))] = draw(nonzero)
    rest = draw(_rows(SPARSE_Q, ncols, 0, 8))
    at = draw(st.integers(0, len(rest)))
    return ncols, [first] + rest[:at] + [short] + rest[at:]


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(markowitz_problems())
def test_shortest_row_pivots_match_first_row_rule(problem):
    """Pivoting each column on its shortest row keeps the pivot columns of
    the first-row rule, so the rank mod P is sympy's rank, and back
    substitution reads off the same kernel basis; nullspace over Q equals
    the row_reduce fallback and sympy."""
    ncols, sparse = problem
    holders = [r for r in sparse if 0 in r]
    assert min(holders, key=len) is not holders[0]
    images = [QQ.mod_row(r, 0) for r in sparse]
    pivots, _ = linalg._echelon_mod_p([dict(r) for r in images], ncols)
    assert pivots == _echelon_first_row([dict(r) for r in images], ncols)[0]
    rank = _matrix(sparse, ncols, sympy.QQ).rank()
    assert len(pivots) == rank
    assert rank_mod_p(sparse, ncols, QQ, 0) == rank
    expected = _fallback_nullspace(sparse, ncols)
    assert expected == _sympy_nullspace(sparse, ncols)
    assert nullspace(sparse, ncols, QQ) == expected
    certified = linalg._modular_nullspace(sparse, ncols, QQ)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_echelon_mod_p", _echelon_first_row)
        assert linalg._modular_nullspace(sparse, ncols, QQ) == certified
        assert rank_mod_p(sparse, ncols, QQ, 0) == rank


def _counting(monkeypatch):
    """Wrap the modular path; the list records whether each call
    certified its answer."""
    outcomes = []
    modular = linalg._modular_nullspace

    def wrapper(*args):
        out = modular(*args)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(linalg, "_modular_nullspace", wrapper)
    return outcomes


@pytest.mark.parametrize("rows, ncols, certified", [
    # the pivot sets differ mod P: column 0 vanishes there
    ([{0: P, 1: 1}], 2, False),
    # an entry divisible by P is lost mod P and breaks the check ...
    ([{0: 1, 1: 1, 2: P}], 3, False),
    # ... or is dropped without harm (it is no pivot mod P)
    ([{0: P, 1: 1, 2: 1}, {0: 1}], 3, True),
    # a kernel entry above the reconstruction bound
    ([{0: 2**40 + 7, 1: 3}], 2, False),
    # a denominator divisible by P, also where the check would pass
    ([{0: Fraction(1, P), 1: 1}], 2, False),
    ([{0: Fraction(1, P), 1: Fraction(1, P)}], 2, False),
    # a row of stored zeros, empty rows and an empty row list: every
    # column is free
    ([{0: 0, 1: 0, 2: 0}], 3, True),
    ([{}, {}], 2, True),
    ([], 3, True),
])
def test_certified_nullspace_adversarial(rows, ncols, certified,
                                         monkeypatch):
    rows = [{j: Fraction(x) for j, x in row.items()} for row in rows]
    outcomes = _counting(monkeypatch)
    got = nullspace(rows, ncols, QQ)
    assert outcomes == [certified]
    assert got == _sympy_nullspace(rows, ncols)
    assert all(type(x) is Rational for v in got for x in v)


def test_nullspace_without_columns(monkeypatch):
    outcomes = _counting(monkeypatch)
    assert nullspace([], 0, QQ) == []
    assert nullspace([{}, {}], 0, QQ) == []
    assert outcomes == []


@pytest.mark.parametrize("preset, kind, max_w2", [
    ("osp1_4-regular", exponential_screenings, 8),
    ("sl4-subregular", generic_screenings, 6),
])
def test_specialized_kernels_certify_without_fallback(preset, kind, max_w2,
                                                      monkeypatch):
    """At k = 7/2 the modular path certifies every kernel over Q, and the
    forced fallback gives the same bases."""
    ctx = preset_context(preset, Fraction(7, 2))
    ops = kind(ctx)
    with monkeypatch.context() as mp:
        outcomes = _counting(mp)
        certified = [kernel_basis(ctx, ops, w2).basis_fields
                     for w2 in range(max_w2 + 1)]
    assert outcomes and all(outcomes)
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_modular_nullspace", lambda *args: None)
        fallback = [kernel_basis(ctx, ops, w2).basis_fields
                    for w2 in range(max_w2 + 1)]
    assert certified == fallback
