"""Differential property tests of the rational-root finder against sympy."""

from fractions import Fraction
from math import gcd, isqrt

import pytest

from vertexscreen.scalars import (p_linear_factors, p_mul, p_primitive,
                                  p_rational_roots)

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

BIG = 10 ** 20
X = sympy.Symbol("x")


def _primitive_linear(pq):
    p, q = pq
    g = gcd(p, q)
    return (-p // g, q // g)


linear_factors = st.lists(
    st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG))
    .map(_primitive_linear), max_size=4)
multiplicities = st.lists(st.integers(1, 3), min_size=4, max_size=4)


def _irreducible(quad):
    """c + b x + a x^2 has no rational root: its discriminant is no square."""
    c, b, a = quad
    disc = b * b - 4 * a * c
    return disc < 0 or isqrt(disc) ** 2 != disc


quadratics = st.one_of(
    st.none(),
    st.tuples(st.integers(-BIG, BIG), st.integers(-BIG, BIG),
              st.integers(1, BIG)).filter(_irreducible))
contents = st.integers(-BIG, BIG).filter(bool)


def _sympy_rational_roots(a):
    _, factors = sympy.Poly(list(reversed(a)), X).factor_list()
    return {Fraction(-int(f.nth(0)), int(f.nth(1)))
            for f, _ in factors if f.degree() == 1}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(linear_factors, multiplicities, quadratics, contents)
def test_rational_roots_match_sympy(lins, mults, quad, content):
    a = (content,)
    for lin, m in zip(lins, mults):
        for _ in range(m):
            a = p_mul(a, lin)
    if quad is not None:
        a = p_mul(a, quad)
    assert p_rational_roots(a) == _sympy_rational_roots(a)
    factors, residual = p_linear_factors(a)
    product = residual
    for f in factors:
        product = p_mul(product, f)
    assert product == p_primitive(a)
    assert not _sympy_rational_roots(residual)
