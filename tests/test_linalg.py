from fractions import Fraction

from vertexscreen.linalg import decompose, matrix_rank, nullspace, solve_in_span
from vertexscreen.scalars import QQ, RationalFunctionField


def test_rank_and_nullspace_rationals():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert matrix_rank(rows, 3, QQ) == 2
    null = nullspace(rows, 3, QQ)
    assert len(null) == 1
    v = null[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_symbolic():
    F = RationalFunctionField("k")
    k = F.gen
    rows = [[k + 1, k * k - 1], [F.one, k - 1]]
    null = nullspace(rows, 2, F)
    assert len(null) == 1
    for row in rows:
        acc = F.zero
        for a, b in zip(row, null[0]):
            acc = acc + a * b
        assert F.is_zero(acc)
    # full-rank case
    rows = [[k, F.one], [F.one, F.zero]]
    assert nullspace(rows, 2, F) == []
    assert matrix_rank(rows, 2, F) == 2


def test_nullspace_deterministic():
    F = RationalFunctionField("k")
    rows = [[F.one, F.one, F.one]]
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
    family = [[F.one, F.zero, k], [F.zero, k + 1, F.one]]
    targets = [
        [k, k * k - 1, k * k + k - 1],   # k v1 + (k - 1) v2
        [F.one, F.one, F.one],           # outside the span
        [F.zero, F.zero, F.zero],
        [F.zero, F.one, F.one / (k + 1)],  # v2 / (k + 1)
    ]
    got = decompose(family, targets, F)
    assert got == [[k, k - 1], None, [F.zero, F.zero],
                   [F.zero, F.one / (k + 1)]]
    half = Fraction(1, 2)
    got = decompose([[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]],
                    [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(3)]],
                    QQ)
    assert got == [[half, 0], [-Fraction(3, 2), 3]]


def test_decompose_dependent_family():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert decompose(rows, [[Fraction(1), Fraction(2)]], QQ) is None
    F = RationalFunctionField("k")
    k = F.gen
    family = [[k, F.one], [k * k, k], [F.one, F.zero]]
    assert decompose(family, [[F.one, F.one]], F) is None
