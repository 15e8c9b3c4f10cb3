"""Exact coefficient arithmetic: rationals and rational functions.

Everything in the engine is computed over an exact coefficient field,
either the rationals Q, whose values are Rational (a lean reduced pair of
ints), or the field Q(x) of rational functions in one named symbol
(usually the level ``k``).  Every rational in the engine is a Rational,
and read_rational is the one reader of outside text.
Rational stays a registered numbers.Rational that takes any as an operand,
so callers' Fractions and the Rationals of a second import still agree.
Rational functions are stored as a pair of coprime integer-coefficient
polynomials; the denominator has positive leading coefficient and the
pair carries no common integer content.  No floating point anywhere.

Every value with denominator 1 holds the tuple P_ONE itself, and its
constant numerators are added, negated and multiplied inline; a constant
denominator (d,) reduces by integer gcds alone.  _rf builds a canonical
pair as it stands, the hash is computed on first use, a unit factor hands
back the other operand, and lift(1) is the field's one, on both fields.

Polynomial gcds are taken by evaluation (the heuristic gcd of Char,
Geddes & Gonnet, J. Symbolic Comput. 7, 1989; von zur Gathen & Gerhard,
Modern Computer Algebra, 6.8): the integer gcd h of the values a_i(xi),
read back in balanced base xi and made primitive, is a candidate G, and
one call covers a numerator and denominator or a whole row.  G is exact
as soon as it divides every a_i, provided xi >= 2 * min ||a_i||_inf + 2;
the quotients of that check are the cofactors.  When six points fail,
the primitive pseudo-remainder sequence decides instead.  xi is read off
one operand, the shortest: 2 * ||a||_inf + 29, whose norm is at least the
minimum, so the condition holds without reading every coefficient of a
row.  Any common factor G divides that a, so its roots lie within
||a||_inf + 1 of 0 and |G(xi)| > xi / 2 when G is not constant.
"""

import numbers
import re
import sys
from functools import total_ordering
from itertools import count
from math import gcd, isqrt, lcm


# ---------------------------------------------------------------------------
# dense integer polynomials as tuples, coeffs[i] = coefficient of x**i


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


P_ZERO = ()
P_ONE = (1,)
P = (1 << 61) - 1  # the Mersenne prime of the hooks int_row and mod_row


def p_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def p_neg(a):
    return tuple(-x for x in a)


def p_sub(a, b):
    return p_add(a, p_neg(b))


def p_mul(a, b):
    if not a or not b:
        return P_ZERO
    if len(a) == 1 or len(b) == 1:
        # a constant factor scales the other; (0,) is a zero constant
        if len(a) != 1:
            a, b = b, a
        s = a[0]
        if not s or not b[-1]:
            return P_ZERO
        if s == 1:
            return b
        return (s * b[0],) if len(b) == 1 else tuple([x * s for x in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out) if out[-1] else _trim(out)


def p_scale(a, s):
    if s == 0:
        return P_ZERO
    return tuple(x * s for x in a)


def p_content(a):
    return gcd(*a)


def p_primitive(a):
    g = p_content(a)
    if g <= 1:
        return a
    return tuple(x // g for x in a)


def p_eval(a, x):
    acc = QQ.zero
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_eval_mod(a, x):
    return sum(c * pow(x, i, P) for i, c in enumerate(a)) % P


def p_pseudo_rem(a, b):
    # lc(b)**(deg a - deg b + 1) * a  mod  b, computed without fractions
    if not b:
        raise ZeroDivisionError("pseudo remainder by zero polynomial")
    r = a
    d = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= d and r:
        k = len(r) - 1 - d
        lr = r[-1]
        r = p_sub(p_scale(r, lb), (0,) * k + p_scale(b, lr))
    return r


def _prs_gcd(a, b):
    """The gcd by the primitive pseudo-remainder sequence.

    The fallback of _gcd_cofactors, the gcd when an operand is zero, and
    the reference the tests compare against.
    """
    a, b = p_primitive(a), p_primitive(b)
    if not a:
        g = b
    elif not b:
        g = a
    else:
        while b:
            r = p_pseudo_rem(a, b)
            a, b = b, p_primitive(r)
        g = a
    if g and g[-1] < 0:
        g = p_neg(g)
    return g if g else P_ZERO


def _heu_gcd(polys):
    """(g, [a/g for a in polys]) for nonconstant polys, or None.

    The heuristic gcd of the module docstring.  A running gcd of the
    values 0 < h <= xi // 2 reads as a constant, and so does the full gcd,
    which divides it: then g = P_ONE with no division, and no more values
    are read.  None when six points xi all fail.
    """
    xi = 2 * max(map(abs, min(polys, key=len))) + 29
    for _ in range(6):
        h = 0
        for a in polys:
            acc = 0
            for c in reversed(a):
                acc = acc * xi + c
            h = gcd(h, acc)
            if 0 < h <= xi // 2:
                return P_ONE, polys
        g = []
        while h:
            c = h % xi
            if c > xi // 2:
                c -= xi
            g.append(c)
            h = (h - c) // xi
        # the top digit of h > 0 is positive, and so is g's
        g = p_primitive(tuple(g))
        try:
            return g, [p_div_exact(a, g) for a in polys]
        except ArithmeticError:
            xi = xi * 73794 // 27011
    return None


def _gcd_cofactors(polys):
    """(g, [a/g for a in polys]) for nonconstant polys.

    g is their primitive gcd with positive leading coefficient; when g is
    P_ONE the cofactors equal polys.
    """
    out = _heu_gcd(polys)
    if out is None:
        g = P_ZERO
        for a in polys:
            g = _prs_gcd(g, a)
        out = g, [p_div_exact(a, g) for a in polys]
    return out


def p_gcd(a, b):
    """The primitive gcd of a and b with positive leading coefficient."""
    if not a or not b:
        return _prs_gcd(a, b)
    if len(a) == 1 or len(b) == 1:
        return P_ONE
    return _gcd_cofactors([a, b])[0]


def p_div_exact(a, b):
    """Quotient a/b assuming exact divisibility with an integer result.

    Raises ArithmeticError when b does not divide a or the quotient has a
    non-integer coefficient.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return P_ZERO
    d = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - d)
    for k in range(len(a) - 1 - d, -1, -1):
        c, rem = divmod(r[k + d], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if c:
            q[k] = c
            for j in range(d):
                r[k + j] -= c * b[j]
    if any(r[:d]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q) if q[-1] else _trim(q)


def p_str(a, sym):
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            base = sym if i == 1 else "%s^%d" % (sym, i)
            term = base if abs(c) == 1 else "%d*%s" % (abs(c), base)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts)


def p_derivative(a):
    return _trim(i * c for i, c in enumerate(a))[1:]


def _p_hom_eval(a, p, q):
    """q**deg(a) * a(p/q), in integers."""
    acc, qpow = a[-1], 1
    for c in reversed(a[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
    return acc


def _p_div_linear(a, p, q):
    """a / (q*x - p) for a root p/q of a; exact in integers by Gauss's lemma."""
    out = [0] * (len(a) - 1)
    b = 0
    for i in range(len(a) - 1, 0, -1):
        b = (a[i] + p * b) // q
        out[i - 1] = b
    return tuple(out)


def _squarefree_rational_roots(s):
    """The rational roots of a squarefree integer polynomial with s(0) != 0.

    A root p/q (lowest terms) has q | lc(s), so c = lc(s) * p/q is an
    integer, and |c| < h by Cauchy's bound.  Pick a prime l not dividing
    lc(s) such that every root of s mod l is simple; then each rational
    root reduces to its own root mod l.  Lift every root mod l by Newton
    iteration to l**m > 2h, read c off as the symmetric residue of
    lc(s) * root and keep c / lc(s) when it is a root (von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 15).  Such a prime exists since
    the discriminant of s is nonzero, so the search is complete.
    """
    lc = s[-1]
    ds = p_derivative(s)
    for ell in count(2):
        if lc % ell == 0 or any(ell % d == 0
                                for d in range(2, isqrt(ell) + 1)):
            continue
        s_ell = tuple(c % ell for c in s)
        residues = [r for r in range(ell)
                    if _p_hom_eval(s_ell, r, 1) % ell == 0]
        if any(_p_hom_eval(ds, r, 1) % ell == 0 for r in residues):
            continue
        break
    h = abs(lc) + max(abs(c) for c in s)
    modulus, precision = ell, 1
    while modulus <= 2 * h:
        modulus *= modulus
        precision *= 2
    roots = set()
    for r in residues:
        for _ in range(precision.bit_length() - 1):
            r = (r - _p_hom_eval(s, r, 1)
                 * pow(_p_hom_eval(ds, r, 1), -1, modulus)) % modulus
        c = lc * r % modulus
        if c > modulus // 2:
            c -= modulus
        root = QQ.quo(c, lc)
        if _p_hom_eval(s, root.numerator, root.denominator) == 0:
            roots.add(root)
    return roots


def p_linear_factors(a):
    """Split an integer polynomial over its rational roots.

    Returns (factors, residual): factors lists the primitive (q*x - p)
    tuples, q > 0, one per rational root p/q repeated by its multiplicity,
    and residual is the primitive cofactor, which has no rational root.
    Their product is the primitive part of a.
    """
    a = p_primitive(_trim(a))
    if len(a) <= 1:
        return [], a
    v = 0
    while a[v] == 0:
        v += 1
    factors = [(0, 1)] * v
    a = a[v:]
    if len(a) > 1:
        s = p_div_exact(a, p_gcd(a, p_derivative(a)))
        for r in sorted(_squarefree_rational_roots(s)):
            p, q = r.numerator, r.denominator
            while len(a) > 1 and _p_hom_eval(a, p, q) == 0:
                a = _p_div_linear(a, p, q)
                factors.append((-p, q))
    return factors, a


def p_rational_roots(a):
    """All rational roots of an integer polynomial, as a set of Rationals."""
    return {QQ.quo(-f[0], f[1]) for f in p_linear_factors(a)[0]}


class RationalFunction:
    """An element of Q(x) in canonical reduced form."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field, num, den):
        self.field = field
        self.num, self.den = _reduce(num, den)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field is not self.field:
                raise TypeError("mixed rational-function fields")
            return other
        if isinstance(other, numbers.Rational):
            return self.field.lift(other)
        return None

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = other if other.__class__ is RationalFunction and \
            other.field is self.field else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if da is P_ONE is db:
            if len(a) == 1 == len(b):
                t = a[0] + b[0]
                num = (t,) if t else P_ZERO
            else:
                num = p_add(a, b)
            x = object.__new__(RationalFunction)
            x.field = self.field
            x.num = num
            x.den = P_ONE
            return x
        if len(da) == 1 == len(db):
            # constant denominators: reduced by integer gcds only
            p, q = da[0], db[0]
            return _by_int(self.field, p_add(a, b), p) if p == q else \
                _by_int(self.field, p_add(p_mul(a, db), p_mul(b, da)), p * q)
        return RationalFunction(self.field, p_add(p_mul(a, db), p_mul(b, da)),
                                p_mul(da, db))

    __radd__ = __add__

    def __neg__(self):
        a = self.num
        return _rf(self.field, (-a[0],) if len(a) == 1 else p_neg(a),
                   self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = other if other.__class__ is RationalFunction and \
            other.field is self.field else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        # a unit factor hands back the other operand
        if b == P_ONE and db is P_ONE:
            return self
        if a == P_ONE and da is P_ONE:
            return o
        if da is P_ONE is db:
            x = object.__new__(RationalFunction)
            x.field = self.field
            if len(a) == 1:
                a, b = b, a
            if len(b) == 1:
                t = b[0]
                x.num = (a[0] * t,) if len(a) == 1 else \
                    tuple([c * t for c in a])
            else:
                x.num = p_mul(a, b)
            x.den = P_ONE
            return x
        if len(da) == 1 == len(db):
            return _by_int(self.field, p_mul(a, b), da[0] * db[0])
        return RationalFunction(self.field, p_mul(a, b), p_mul(da, db))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        b, db = o.num, o.den
        if not b:
            raise ZeroDivisionError("division by zero rational function")
        if len(b) == 1 == len(db) == len(self.den):
            # (a/p) / (s/q) = a*q / (p*s), reduced by integer gcds
            a = p_mul(self.num, db if b[0] > 0 else (-db[0],))
            return _by_int(self.field, a, self.den[0] * abs(b[0]))
        return RationalFunction(self.field, p_mul(self.num, db),
                                p_mul(self.den, b))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            # constants hash as the Rational (and so the int) they equal
            q = self.field.as_rational(self)
            self._hash = h = hash((self.field.symbol, self.num, self.den)
                                  if q is None else q)
            return h

    # -- queries ------------------------------------------------------------

    def evaluate(self, x):
        """The Rational value at the rational x; a float raises TypeError."""
        x = QQ.lift(x)
        den = p_eval(self.den, x)
        if den == 0:
            raise ZeroDivisionError(
                "denominator %s vanishes at %s" % (p_str(self.den,
                                                         self.field.symbol), x))
        return p_eval(self.num, x) / den

    def __str__(self):
        n = p_str(self.num, self.field.symbol)
        if self.den is P_ONE:
            return n
        d = p_str(self.den, self.field.symbol)
        if len(self.num) > 1 or (self.num and self.num[0] < 0):
            n = "(%s)" % n
        if len(self.den) > 1:
            d = "(%s)" % d
        return "%s/%s" % (n, d)

    __repr__ = __str__


def _rf(field, num, den):
    """The value num/den of a canonical pair, as it stands."""
    x = object.__new__(RationalFunction)
    x.field = field
    x.num = num
    x.den = den
    return x


def _by_int(field, num, d):
    """num/d for a trimmed num and an int d > 0, reduced by an int gcd."""
    g = gcd(d, *num)
    if g > 1:
        num, d = tuple([x // g for x in num]), d // g
    return _rf(field, num, P_ONE if d == 1 else (d,))


def _reduce(num, den):
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return P_ZERO, P_ONE
    # a constant on either side leaves no polynomial gcd to divide out
    if len(num) > 1 and len(den) > 1:
        num, den = _gcd_cofactors([num, den])[1]
    c = gcd(*num, *den)
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    if den[-1] < 0:
        num, den = p_neg(num), p_neg(den)
    return num, P_ONE if den == P_ONE else den


def _p_lcm(a, b):
    """The lcm of two integer polynomials, integer content included."""
    if a == b or b == P_ONE:
        return a
    if a == P_ONE:
        return b
    g = p_scale(p_gcd(a, b), gcd(*a, *b))
    return p_mul(a, p_div_exact(b, g))


def _nonzero(items):
    """The sparse row {column: entry} of the (column, entry) pairs, its
    zeros dropped."""
    return {j: x for j, x in items if x}


def _strip_polys(row, factor_sink=None):
    """Divide a sparse row {column: nonzero integer polynomial} by its
    gcd, content included.

    A nonconstant common factor vanishes at its roots, so when a
    factor_sink is supplied it is recorded there (its roots are
    candidate rank-drop levels).  An empty row comes back unchanged.
    """
    if not row:
        return row
    # a constant entry leaves no polynomial gcd; a row whose entries are
    # all one tuple, as a single entry is, is divided by it as it stands,
    # sign and content included
    entries = list(row.values())
    g = min(entries, key=len)
    if len(g) > 1:
        if any(x is not g for x in entries):
            g, entries = _gcd_cofactors(entries)
        else:
            entries = [P_ONE] * len(entries)
        if len(g) > 1:
            if factor_sink is not None:
                factor_sink.append(g)
            row = dict(zip(row, entries))
    c = 0
    for x in row.values():
        c = gcd(c, *x)
        if c == 1:
            return row
    # the running gcd of nonzero entries never reached 1: c > 1
    return {j: tuple(y // c for y in x) for j, x in row.items()}


class RationalFunctionField:
    """The field Q(symbol); also the factory for its elements.

    Instances are cached per symbol so elements built anywhere interoperate.
    """

    _cache = {}

    def __new__(cls, symbol="k"):
        inst = cls._cache.get(symbol)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(symbol)
            cls._cache[symbol] = inst
        return inst

    def _init(self, symbol):
        self.symbol = symbol
        self.zero = _rf(self, P_ZERO, P_ONE)
        self.one = _rf(self, P_ONE, P_ONE)
        self.gen = _rf(self, (0, 1), P_ONE)

    name = property(lambda self: "Q(%s)" % self.symbol)
    # rows of rational functions have no integer form: linalg.nullspace
    # takes no modular path over Q(k)
    int_row = None

    def lift(self, x):
        if type(x) is int:
            if x == 1:
                return self.one
            return _rf(self, (x,) if x else P_ZERO, P_ONE)
        q = QQ.lift(x)  # refuses a float or a string, as over Q
        n, d = q.numerator, q.denominator
        return _rf(self, (n,) if n else P_ZERO, P_ONE if d == 1 else (d,))

    def as_rational(self, x):
        """x as a Rational if it is constant, else None."""
        if len(x.num) <= 1 and len(x.den) <= 1:
            return _q(x.num[0] if x.num else 0, x.den[0])
        return None

    def strip_row(self, row, factor_sink=None):
        """Scale a sparse row of rational functions to coprime integer
        polynomials, its zeros dropped.

        The row is multiplied by the lcm of its denominators, then its
        common factor is divided out as in _strip_polys.
        """
        den = P_ONE
        for x in row.values():
            den = _p_lcm(den, x.den)
        return _strip_polys({j: x.num if x.den == den
                             else p_mul(x.num, p_div_exact(den, x.den))
                             for j, x in row.items() if x}, factor_sink)

    def eliminate(self, row, prow, col, factor_sink=None):
        """Clear row[col] against the pivot row prow, fraction-free.

        Both rows are stripped sparse polynomial rows.  The result is the
        stripped form of (p/g)*row - (v/g)*prow, with p = prow[col],
        v = row[col] and g = gcd(p, v), without column col, which it
        clears by construction.  Its stripped factor is that of
        row - (v/p)*prow with denominators cleared, since prow is
        primitive and p/g is coprime to v/g.
        """
        p, v = prow[col], row[col]
        # a constant on either side leaves no polynomial gcd to divide out
        if len(p) > 1 and len(v) > 1:
            p, v = _gcd_cofactors([p, v])[1]
        c = gcd(*p, *v)
        if c > 1:
            p = tuple(x // c for x in p)
            v = tuple(x // c for x in v)
        out = {j: p_mul(p, x) for j, x in row.items() if j != col}
        v = p_neg(v)
        for j, y in prow.items():
            if j != col:
                x = p_add(out.get(j, P_ZERO), p_mul(v, y))
                if x:
                    out[j] = x
                else:
                    del out[j]
        return _strip_polys(out, factor_sink)

    def mod_row(self, row, k0):
        """A sparse row at k = k0 mod P, its zeros dropped: a ring map
        where defined, None when a denominator vanishes there.  The hook
        of linalg.rank_mod_p."""
        dens = [p_eval_mod(x.den, k0) for x in row.values()]
        if not all(dens):
            return None
        return _nonzero((j, p_eval_mod(x.num, k0) * pow(d, -1, P) % P)
                        for (j, x), d in zip(row.items(), dens))

    def quo(self, a, b):
        return RationalFunction(self, a, b)

    def dot(self, row, vec):
        """sum(row[j] * vec[j]) of two stripped sparse rows."""
        acc = P_ZERO
        for j, x in row.items():
            y = vec.get(j)
            if y:
                acc = p_add(acc, p_mul(x, y))
        return acc

    def denominators(self, values, polys=()):
        """The labels of the denominators of values and of the integer
        polynomials polys (as 1/p would hold them, sign positive).

        Each distinct denominator polynomial is factored once.  The labels
        are its primitive linear factors and its rootless residual, as
        strings; the zero -p/q of each linear label p + q*k is a root.
        """
        dens = {x.den for x in values}
        dens.update(p_neg(p) if p[-1] < 0 else p for p in polys)
        labels = set()
        for den in dens - {P_ONE}:
            factors, residual = p_linear_factors(den)
            labels.update(p_str(f, self.symbol) for f in factors)
            if len(residual) > 1:
                labels.add(p_str(residual, self.symbol))
        return labels

    def denominator_labels(self, x):
        return self.denominators((x,))

    def denominator_roots(self, x):
        return p_rational_roots(x.den)


def _operator(op, reflected=False):
    """The Rational method op(na, da, nb, db) on reduced pairs of ints,
    with the operands swapped when reflected; the other operand is a
    Rational, an int or another numbers.Rational (a Fraction, a Rational of
    a second import of this module)."""
    def method(self, other):
        if other.__class__ is Rational:
            nb, db = other.numerator, other.denominator
        elif other.__class__ is int:
            nb, db = other, 1
        elif isinstance(other, numbers.Rational):
            nb, db = other.numerator, other.denominator
        else:
            return NotImplemented
        if reflected:
            return op(nb, db, self.numerator, self.denominator)
        return op(self.numerator, self.denominator, nb, db)
    return method


def _q(n, d):
    """The Rational n/d of a reduced pair with d > 0, as it stands."""
    x = object.__new__(Rational)
    x.numerator = n
    x.denominator = d
    return x


# the operations of Rational on reduced pairs na/da and nb/db
def _sum(na, da, nb, db):
    if da == db:
        if da == 1:
            return _q(na + nb, 1)
        t = na + nb
        g = gcd(t, da)
        return _q(t // g, da // g) if g > 1 else _q(t, da)
    if db == 1:
        return _q(na + nb * da, da)
    if da == 1:
        return _q(na * db + nb, db)
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    return _q(t // g2, s * (db // g2))


def _prod(na, da, nb, db):
    if db == 1:
        if da == 1:
            return _q(na * nb, 1)
    else:
        g = gcd(na, db)
        if g > 1:
            na //= g
            db //= g
    if da != 1:
        g = gcd(nb, da)
        if g > 1:
            nb //= g
            da //= g
    return _q(na * nb, da * db)


def _div(na, da, nb, db):
    if not nb:
        raise ZeroDivisionError("division by zero")
    g = gcd(na, nb)
    if g > 1:
        na //= g
        nb //= g
    if da != db:
        g = gcd(da, db)
        if g > 1:
            da //= g
            db //= g
        na *= db
        nb *= da
    return _q(-na, -nb) if nb < 0 else _q(na, nb)


@total_ordering
class Rational:
    """An element of Q: coprime ints numerator and denominator > 0.

    Operations take a Rational, an int or any numbers.Rational and give a
    reduced Rational.  Denominator 1 and equal denominators take short
    paths; otherwise the gcds are taken crosswise, as in fractions.Fraction.
    ==, hash and str agree with Fraction's, and the class is registered
    as a numbers.Rational, so the Fraction constructor reads it.  QQ.lift
    and QQ.quo make the values.
    """

    __slots__ = ("numerator", "denominator")

    __add__ = __radd__ = _operator(_sum)
    __sub__ = _operator(lambda na, da, nb, db: _sum(na, da, -nb, db))
    __rsub__ = _operator(lambda na, da, nb, db: _sum(nb, db, -na, da))
    __mul__ = __rmul__ = _operator(_prod)
    __truediv__ = _operator(_div)
    __rtruediv__ = _operator(_div, reflected=True)
    __eq__ = _operator(lambda na, da, nb, db: na == nb and da == db)
    __lt__ = _operator(lambda na, da, nb, db: na * db < nb * da)

    def __neg__(self):
        return _q(-self.numerator, self.denominator)

    def __bool__(self):
        return self.numerator != 0

    def __int__(self):
        # toward zero, as int(Fraction)
        n, d = self.numerator, self.denominator
        return n // d if n >= 0 else -(-n // d)

    def __hash__(self):
        n, d = self.numerator, self.denominator
        if d == 1:
            return hash(n)
        # Fraction's hash: |n| times the inverse of d modulo the hash prime
        m = sys.hash_info.modulus
        h = hash(hash(abs(n)) * pow(d, -1, m)) if d % m else \
            sys.hash_info.inf
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __str__(self):
        n, d = self.numerator, self.denominator
        return str(n) if d == 1 else "%d/%d" % (n, d)

    def __repr__(self):
        return "Rational(%d, %d)" % (self.numerator, self.denominator)


numbers.Rational.register(Rational)


class Rationals:
    """The field Q, whose values are Rational; the factory interface of
    RationalFunctionField."""

    symbol = None
    name = "Q"

    def __init__(self):
        self.zero = _q(0, 1)
        self.one = _q(1, 1)

    def lift(self, x):
        """x as a Rational: an int or a numbers.Rational; no float."""
        if x.__class__ is Rational:
            return x
        if x.__class__ is int:
            return self.one if x == 1 else _q(x, 1)
        if isinstance(x, numbers.Rational):
            return _q(x.numerator, x.denominator)
        raise TypeError("Q holds exact rationals, not %s" % type(x).__name__)

    as_rational = lift  # every value of Q is constant

    def int_row(self, values):
        """(den, [x * den for x in values]) with den the lcm of the
        denominators of a row's values: ints or Rationals.
        This is the hook of linalg.nullspace's modular path."""
        den = lcm(*[x.denominator for x in values])
        return den, [x.numerator * (den // x.denominator) for x in values]

    def mod_row(self, row, k0):
        """A sparse row scaled by int_row, mod P and its zeros dropped, at
        any level k0, or None when P divides its den."""
        den, ints = self.int_row(row.values())
        return _nonzero((j, x % P) for j, x in zip(row, ints)) \
            if den % P else None

    def strip_row(self, row, factor_sink=None):
        """Scale a sparse row of ints or Rationals by a positive
        rational to coprime ints, its zeros dropped."""
        ints = self.int_row(row.values())[1]
        g = gcd(*ints)
        return {j: x // g for j, x in zip(row, ints) if x}

    def eliminate(self, row, prow, col, factor_sink=None):
        """Clear row[col] against the pivot row prow, fraction-free, as
        over Q(k): both are stripped sparse int rows, and the sign of p/g
        is divided out."""
        p, v = prow[col], row[col]
        g = gcd(p, v)
        a, b = p // g, v // g
        if a < 0:
            a, b = -a, -b
        out = {j: a * x for j, x in row.items()}
        for j, y in prow.items():
            out[j] = out.get(j, 0) - b * y
        g = gcd(*out.values())
        return {j: x // g for j, x in out.items() if x}

    def quo(self, a, b):
        """The Rational a/b of ints, b != 0."""
        return _div(a, 1, b, 1)

    def dot(self, row, vec):
        return sum(x * vec[j] for j, x in row.items() if j in vec)

    def denominators(self, values, polys=()):
        return set()

    def denominator_labels(self, x):
        return set()

    def denominator_roots(self, x):
        return set()


QQ = Rationals()


def read_rational(text):
    """The Rational of text [-+]?d+(/d+|.d+)? in ASCII digits, on every
    Python; other text raises ValueError, a zero q ZeroDivisionError."""
    m = re.fullmatch(r"([-+]?\d+)(?:/(\d+)|\.(\d+))?", text, re.ASCII)
    if m is None:
        raise ValueError("not a rational p/q: %r" % text)
    num, den, decimals = m.groups()
    if decimals:
        return QQ.quo(int(num + decimals), 10 ** len(decimals))
    return QQ.quo(int(num), int(den or 1))
