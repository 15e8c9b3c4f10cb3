from fractions import Fraction
from math import gcd

import pytest

from vertexscreen import cli, linalg, screening
from vertexscreen.linalg import decompose, matrix_rank, nullspace, solve_in_span
from vertexscreen.presets import preset_context
from vertexscreen.scalars import (QQ, Rational, RationalFunction,
                                  RationalFunctionField, Rationals)


def _dot(row, v, zero=0):
    """A sparse row times a vector."""
    return sum((x * v[j] for j, x in row.items()), zero)


def test_rank_and_nullspace_rationals():
    rows = [
        {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
        {0: Fraction(2), 1: Fraction(4), 2: Fraction(6)},
        {1: Fraction(1), 2: Fraction(1)},
    ]
    assert matrix_rank(rows, 3, QQ) == 2
    null = nullspace(rows, 3, QQ)
    assert len(null) == 1
    v = null[0]
    for row in rows:
        assert _dot(row, v) == 0


def test_nullspace_symbolic():
    F = RationalFunctionField("k")
    k = F.gen
    rows = [{0: k + 1, 1: k * k - 1}, {0: F.one, 1: k - 1}]
    null = nullspace(rows, 2, F)
    assert len(null) == 1
    for row in rows:
        assert not _dot(row, null[0], F.zero)
    # full-rank case
    rows = [{0: k, 1: F.one}, {0: F.one}]
    assert nullspace(rows, 2, F) == []
    assert matrix_rank(rows, 2, F) == 2


def test_nullspace_deterministic():
    F = RationalFunctionField("k")
    rows = [{0: F.one, 1: F.one, 2: F.one}]
    got = nullspace(rows, 3, F)
    again = nullspace(rows, 3, F)
    assert got == again
    assert len(got) == 2
    assert got[0][1] == F.one  # normalized on its free coordinate


def test_solve_in_span():
    F = RationalFunctionField("k")
    k = F.gen
    v1 = {"a": F.one, "b": k}
    v2 = {"b": F.one}
    target = {"a": k, "b": k * k + 1}
    sol = solve_in_span([v1, v2], target, F)
    assert sol == [k, F.one]
    assert solve_in_span([v1], {"c": F.one}, F) is None


def test_decompose_several_targets():
    F = RationalFunctionField("k")
    k = F.gen
    family = [{0: F.one, 2: k}, {1: k + 1, 2: F.one}]
    targets = [
        {0: k, 1: k * k - 1, 2: k * k + k - 1},   # k v1 + (k - 1) v2
        {0: F.one, 1: F.one, 2: F.one},           # outside the span
        {0: F.zero, 1: F.zero, 2: F.zero},
        {1: F.one, 2: F.one / (k + 1)},           # v2 / (k + 1)
    ]
    got = decompose(family, targets, F)
    assert got == [[k, k - 1], None, [F.zero, F.zero],
                   [F.zero, F.one / (k + 1)]]
    half = Fraction(1, 2)
    got = decompose([{0: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}],
                    [{0: Fraction(1)}, {1: Fraction(3)}], QQ)
    assert got == [[half, 0], [-Fraction(3, 2), 3]]


def test_decompose_dependent_family():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)}]
    assert decompose(rows, [{0: Fraction(1), 1: Fraction(2)}], QQ) is None
    F = RationalFunctionField("k")
    k = F.gen
    family = [{0: k, 1: F.one}, {0: k * k, 1: k}, {0: F.one}]
    assert decompose(family, [{0: F.one, 1: F.one}], F) is None
    # the empty family is independent and spans only zero
    for field, one in ((QQ, 1), (F, F.one)):
        assert decompose([], [{}, {"a": field.zero}], field) == [[], []]
        assert decompose([], [{"a": one}], field) == [None]
        assert solve_in_span([], {}, field) == []
        assert solve_in_span([], {"a": one}, field) is None


BIG = 2**64 + 13


def _all_rationals(values):
    """Every value is a Rational, the type of values over Q, reduced with
    a positive denominator."""
    return all(type(x) is Rational and x.denominator > 0
               and gcd(x.numerator, x.denominator) == 1 for x in values)


def test_integer_path_over_q_returns_fractions():
    """Rows of plain ints, and the same rows each scaled by a rational with
    a non-unit denominator, give the same exact Rational results, with
    entries beyond 2**64 and a zero row."""
    ints = [{0: BIG, 2: 3},
            {},
            {0: 2, 1: 5, 3: 3 * BIG},
            {0: BIG + 2, 1: 5, 2: 3, 3: 3 * BIG}]
    scales = [Fraction(1, 3), Fraction(-5, 7), Fraction(2**70, 3**45),
              Fraction(7, 2)]
    fracs = [{j: s * x for j, x in row.items()}
             for s, row in zip(scales, ints)]
    null = nullspace(ints, 4, QQ)
    assert len(null) == 2 and null == nullspace(fracs, 4, QQ)
    assert matrix_rank(ints, 4, QQ) == matrix_rank(fracs, 4, QQ) == 2
    for v in null:
        assert _all_rationals(v)
        for row in ints:
            assert _dot(row, v) == 0

    # key b is a stored zero of every vector: a zero row of
    # [family | targets]
    v1 = dict(zip("abcd", [BIG, 0, 2, 1]))
    v2 = dict(zip("abcd", [3, 0, BIG, 5]))
    targets = [{key: 3 * v1[key] - Fraction(1, 7) * v2[key] for key in v1},
               {"b": 1},
               dict.fromkeys("abcd", 0)]
    got = decompose([v1, v2], targets, QQ)
    assert got == [[3, Fraction(-1, 7)], None, [0, 0]]
    assert _all_rationals(got[0] + got[2])
    scale = dict(zip("abcd", [Fraction(1, 6), 5, Fraction(-3, 4),
                              Fraction(BIG, 7)]))

    def scaled(v):
        return {key: scale[key] * x for key, x in v.items()}

    assert decompose([scaled(v1), scaled(v2)],
                     [scaled(t) for t in targets], QQ) == got

    sol = solve_in_span([v1, v2], targets[0], QQ)
    assert sol == [3, Fraction(-1, 7)] and _all_rationals(sol)
    assert solve_in_span([{k: Fraction(x) for k, x in v.items()}
                          for v in (v1, v2)], targets[0], QQ) == sol


def test_all_zero_matrix_over_q():
    zero = [{0: 0, 1: 0, 2: 0}, {}]  # stored zeros and an empty row
    assert matrix_rank(zero, 3, QQ) == 0
    null = nullspace(zero, 3, QQ)
    assert null == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _all_rationals(x for v in null for x in v)
    assert decompose([{0: 0, 1: 0}, {0: 0, 1: 0}], [{0: 0, 1: 0}], QQ) \
        is None
    assert solve_in_span([{"a": 0}], {}, QQ) is None  # a dependent family


def test_kernel_basis_over_q_holds_one_element_type(monkeypatch):
    """Every kernel vector of kernel_basis at k = 7/2, and every
    coefficient of its basis fields, is a reduced Rational: over Q a
    kernel holds one element type."""
    vectors = []

    def recording(*args, **kwargs):
        out = nullspace(*args, **kwargs)
        vectors.extend(out)
        return out

    monkeypatch.setattr(screening, "nullspace", recording)
    ctx = preset_context("osp1_4-regular", Fraction(7, 2))
    ops = screening.exponential_screenings(ctx)
    fields = [fe for w2 in range(9)
              for fe in screening.kernel_basis(ctx, ops, w2).basis_fields]
    assert len(vectors) == len(fields) == 8
    assert _all_rationals(x for v in vectors for x in v)
    assert _all_rationals(c for fe in fields for c in fe.terms.values())


def test_polynomial_path_over_qk_returns_rational_functions():
    """Rows run through elimination as integer-polynomial tuples; every
    nullspace, decompose and solve_in_span entry comes back as a reduced
    RationalFunction, with denominators and a zero row in the input."""
    F = RationalFunctionField("k")
    k = F.gen
    r1 = {0: k + 1, 2: F.one / (k + 2), 3: k * k}
    r3 = {0: F.lift(Fraction(1, 3)), 1: k, 3: F.one}
    rows = [r1, {1: F.zero}, r3,
            {j: r1.get(j, F.zero) / 5 + r3.get(j, F.zero) * k / (k - 1)
             for j in range(4)}]
    null = nullspace(rows, 4, F)
    assert len(null) == 4 - matrix_rank(rows, 4, F) == 2
    for v in null:
        assert all(type(x) is RationalFunction for x in v)
        for row in rows:
            assert not _dot(row, v, F.zero)

    v1 = dict(zip("abcd", [k, F.zero, F.one, F.one / k]))
    v2 = dict(zip("abcd", [F.one, F.zero, k + 3, F.zero]))
    targets = [{key: (k + 1) * v1[key] - v2[key] / (k - 2) for key in v1},
               {"b": F.one},
               dict.fromkeys("abcd", F.zero)]
    got = decompose([v1, v2], targets, F)
    assert got == [[k + 1, -F.one / (k - 2)], None, [F.zero, F.zero]]
    assert all(type(x) is RationalFunction for x in got[0] + got[2])

    sol = solve_in_span([v1, v2], targets[0], F)
    assert sol == got[0]
    assert all(type(x) is RationalFunction for x in sol)



def _corrupt_back_substitution(monkeypatch, field_cls):
    """Inside linalg.nullspace the first field.quo returns its quotient plus
    one, so one back-substituted entry is wrong.  Over Q the modular path
    is made to fail first, so that row_reduce answers."""
    state = {"inside": False, "corrupted": False}
    quo, inner = field_cls.quo, linalg.nullspace

    def corrupted(self, a, b):
        q = quo(self, a, b)
        if state["inside"] and not state["corrupted"]:
            state["corrupted"] = True
            return q + self.one
        return q

    def tracked(*args, **kwargs):
        state["inside"] = True
        try:
            return inner(*args, **kwargs)
        finally:
            state["inside"] = False

    monkeypatch.setattr(field_cls, "quo", corrupted)
    monkeypatch.setattr(linalg, "nullspace", tracked)
    monkeypatch.setattr(screening, "nullspace", tracked)
    monkeypatch.setattr(linalg, "_modular_nullspace", lambda *args: None)
    return state


@pytest.mark.parametrize("field", [RationalFunctionField("k"), QQ],
                         ids=["Q(k)", "Q"])
def test_nullspace_check_rejects_a_wrong_entry(field, monkeypatch):
    """The exact check of the row_reduce path catches one wrong entry."""
    x = field.gen if field is not QQ else Fraction(7, 2)
    rows = [{0: field.one, 1: 2 * x, 2: 3 * field.one},
            {1: x - 1, 2: x * x + 1}]
    assert len(nullspace(rows, 3, field)) == 1
    state = _corrupt_back_substitution(monkeypatch, type(field))
    with pytest.raises(AssertionError):
        linalg.nullspace(rows, 3, field)
    assert state["corrupted"]


@pytest.mark.parametrize("level", ["symbolic", "7/2"])
def test_failed_check_is_an_internal_error(level, monkeypatch, capsys):
    """The CLI reports a kernel vector that fails the check with exit 3."""
    _corrupt_back_substitution(
        monkeypatch, RationalFunctionField if level == "symbolic"
        else Rationals)
    code = cli.main(["kernel", "--preset", "sl2-regular", "--max-weight",
                     "4", "--level", level])
    assert code == 3
    assert "internal error: AssertionError" in capsys.readouterr().err


@pytest.mark.parametrize("preset, kind, max_w2", [
    ("osp1_4-regular", "exponential", 12),
    ("sl4-subregular", "generic", 8),
])
def test_specialized_kernels_never_reach_row_reduce(preset, kind, max_w2,
                                                    monkeypatch):
    """At k = 7/2, on the plan of the specialized kernel benchmark, the
    modular path certifies the nullspace at every weight: with
    linalg.row_reduce made to raise, kernel_basis still finds each kernel
    of the expected dimension, so no fallback hides inside its speed."""
    ctx = preset_context(preset, Fraction(7, 2))
    _, ops = screening.choose_screenings(ctx, kind)
    char = screening.expected_character(ctx.datum, ctx.grading, max_w2)

    def refuse(*args, **kwargs):
        raise AssertionError("row_reduce called")

    monkeypatch.setattr(linalg, "row_reduce", refuse)
    for w2 in range(max_w2 + 1):
        rep = screening.kernel_basis(ctx, ops, w2, expected=char[w2])
        assert rep.kernel_dim == rep.expected_dim, w2
