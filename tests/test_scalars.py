from fractions import Fraction

import pytest

from vertexscreen.scalars import (P, QQ, RationalFunction,
                                  RationalFunctionField, p_gcd,
                                  p_linear_factors, p_mul, p_rational_roots)


@pytest.fixture
def F():
    return RationalFunctionField("k")


def test_field_is_cached_per_symbol():
    assert RationalFunctionField("k") is RationalFunctionField("k")
    assert RationalFunctionField("k") is not RationalFunctionField("s")


def test_reduction_is_canonical(F):
    k = F.gen
    x = (k * k - 1) / (k - 1)
    assert x == k + 1
    y = (k + 1) / (2 * k + 2)
    assert y == F.lift(Fraction(1, 2))
    assert str((k + 2) / (k + 3)) == "(k+2)/(k+3)"


def test_arithmetic_exact(F):
    k = F.gen
    a = (k + 1) / (k + 2)
    b = (k - 1) / (k + 2)
    assert a + b == (2 * k) / (k + 2)
    assert a - b == 2 / (k + 2)
    assert a * b == (k * k - 1) / ((k + 2) * (k + 2))
    assert (a / b) * b == a
    assert -(a - a) == F.zero
    assert not (a - a)


def test_hash_consistency(F):
    k = F.gen
    assert hash((k + 1) / (k + 1)) == hash(F.one)
    d = {k + 1: "x"}
    assert d[(k * k - 1) / (k - 1)] == "x"
    # a constant hashes as the Fraction it equals
    for c in (Fraction(1, 2), Fraction(-7, 3), Fraction(4), Fraction(0)):
        assert F.lift(c) == c and hash(F.lift(c)) == hash(c)
        assert len({F.lift(c), c}) == 1
    assert hash((2 * k + 2) / (4 * k + 4)) == hash(Fraction(1, 2))


def test_evaluate_and_denominator_roots(F):
    k = F.gen
    x = (k + 1) / ((k + 2) * (2 * k - 3))
    assert x.evaluate(Fraction(0)) == Fraction(1, -6)
    assert F.denominators((x,)) == ({"k+2", "2*k-3"},
                                    {Fraction(-2), Fraction(3, 2)})
    with pytest.raises(ZeroDivisionError):
        x.evaluate(Fraction(-2))


def test_poly_gcd_and_roots():
    a = p_mul((1, 1), (2, 1))      # (x+1)(x+2)
    b = p_mul((1, 1), (-3, 1))     # (x+1)(x-3)
    assert p_gcd(a, b) == (1, 1)
    assert p_rational_roots(a) == {Fraction(-1), Fraction(-2)}
    factors, residual = p_linear_factors(p_mul(a, (1, 0, 1)))
    assert sorted(factors) == [(1, 1), (2, 1)]
    assert residual == (1, 0, 1)


LARGE = p_mul(p_mul((7, 1000003), (1, 999983)), (10 ** 13, 0, 1))


@pytest.mark.parametrize("a, roots", [
    (LARGE, {Fraction(-7, 1000003), Fraction(-1, 999983)}),
    ((104603532030, 20920706406), {Fraction(-5)}),
])
def test_rational_roots_at_any_coefficient_size(a, roots):
    assert p_rational_roots(a) == roots


def test_denominator_labels_at_any_coefficient_size(F):
    x = 1 / ((1000003 * F.gen + 7) * (999983 * F.gen + 1)
             * (F.gen * F.gen + 10 ** 13))
    assert x.den == LARGE
    assert F.denominators((x,))[0] == {"1000003*k+7", "999983*k+1",
                                       "k^2+10000000000000"}


def test_as_rational_on_both_fields(F):
    assert F.as_rational(F.lift(Fraction(5, 2))) == Fraction(5, 2)
    assert F.as_rational(F.gen) is None
    assert QQ.as_rational(Fraction(-4)) == Fraction(-4)


def test_division_by_zero(F):
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_division_by_a_rational_function(F):
    assert 2 / F.gen == Fraction(2) / F.gen \
        == RationalFunction(F, (2,), (0, 1))
    assert Fraction(1, 3) / (F.gen + 1) == RationalFunction(F, (1,), (3, 3))
    for other in (1.5, "a", None):
        with pytest.raises(TypeError):
            other / F.gen


def _mod_p(q):
    return q.numerator * pow(q.denominator, -1, P) % P


def test_mod_row_is_evaluation_mod_p(F):
    k, k0 = F.gen, 1234567
    row = dict(enumerate([F.zero, F.one, k, F.lift(Fraction(-7, 3)),
                          (k * k - 3) / (2 * k + 5),
                          (10 ** 30 * k + 1) / ((k - 2) * (k - 2) * (k - 2)
                                                * 11)]))
    # a sparse row with its zeros dropped
    assert F.mod_row(row, k0) == {j: _mod_p(x.evaluate(k0))
                                  for j, x in row.items() if x}
    # a denominator that vanishes at k0, over the integers or only mod P
    for den in (k - k0, k - (k0 + P), 3 * k - 3 * k0 + 5 * P):
        assert F.mod_row({0: k, 1: 1 / den}, k0) is None
    assert F.mod_row({0: k - k0}, k0) == {}


def test_rationals_mod_row_is_int_row_mod_p():
    row = dict(enumerate([Fraction(1, 3), Fraction(-5, 6), 0,
                          Fraction(10 ** 30, 7)]))
    den, ints = QQ.int_row(row.values())
    got = QQ.mod_row(row, 1234567)
    assert got == {j: x % P for j, x in zip(row, ints) if x % P}
    # the row itself mod P, up to the row scale den
    assert got == {j: _mod_p(Fraction(x)) * den % P
                   for j, x in row.items() if x}
    assert QQ.mod_row({0: Fraction(1, 2 * P), 1: Fraction(1)}, 0) is None
