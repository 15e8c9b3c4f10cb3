"""Exact coefficient arithmetic: rationals and rational functions.

Everything in the engine is computed over an exact coefficient field,
either plain rationals (``fractions.Fraction``) or the field Q(x) of
rational functions in one named symbol (usually the level ``k``).
Rational functions are stored as a pair of coprime integer-coefficient
polynomials; the denominator has positive leading coefficient and the
pair carries no common integer content.  No floating point anywhere.
"""

from fractions import Fraction
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


def p_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def p_neg(a):
    return tuple(-x for x in a)


def p_sub(a, b):
    return p_add(a, p_neg(b))


def p_mul(a, b):
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def p_scale(a, s):
    if s == 0:
        return P_ZERO
    return tuple(x * s for x in a)


def p_content(a):
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g


def p_primitive(a):
    g = p_content(a)
    if g <= 1:
        return a
    return tuple(x // g for x in a)


def p_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_shift_mul_x(a, e):
    if not a:
        return a
    return (0,) * e + a


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
        r = p_sub(p_scale(r, lb), p_shift_mul_x(p_scale(b, lr), k))
    return r


def p_gcd(a, b):
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


def p_div_exact(a, b):
    """Quotient a/b assuming exact divisibility over Q (integer result)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return P_ZERO
    r = [Fraction(x) for x in a]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    d = len(b) - 1
    lb = Fraction(b[-1])
    for k in range(len(a) - 1 - d, -1, -1):
        c = r[k + d] / lb
        q[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    out = []
    for c in q:
        if c.denominator != 1:
            raise ArithmeticError("non-integer exact quotient")
        out.append(c.numerator)
    return _trim(out)


def p_from_fraction(fr):
    """(num_poly, den_poly) for a constant rational."""
    return ((fr.numerator,) if fr.numerator else P_ZERO), (fr.denominator,)


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
        root = Fraction(c, lc)
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
    """All rational roots of an integer polynomial, as a set of Fractions."""
    return {Fraction(-f[0], f[1]) for f in p_linear_factors(a)[0]}


class RationalFunction:
    """An element of Q(x) in canonical reduced form."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field, num, den, _canonical=False):
        self.field = field
        if _canonical:
            self.num, self.den = num, den
        else:
            self.num, self.den = _reduce(num, den)
        self._hash = None

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field is not self.field:
                raise TypeError("mixed rational-function fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.lift(Fraction(other))
        return None

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = p_add(p_mul(self.num, o.den), p_mul(o.num, self.den))
        return RationalFunction(self.field, num, p_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(self.field, p_neg(self.num), self.den,
                                _canonical=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.field, p_mul(self.num, o.num),
                                p_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.field, p_mul(self.num, o.den),
                                p_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._hash is None:
            if self.den == P_ONE and len(self.num) <= 1:
                # agree with Fraction/int hashing for constants
                self._hash = hash(Fraction(self.num[0] if self.num else 0))
            else:
                self._hash = hash((self.field.symbol, self.num, self.den))
        return self._hash

    # -- queries ------------------------------------------------------------

    def as_fraction(self):
        """The value as a Fraction if constant, else None."""
        if len(self.num) <= 1 and len(self.den) <= 1:
            return Fraction(self.num[0] if self.num else 0, self.den[0])
        return None

    def evaluate(self, x):
        den = p_eval(self.den, x)
        if den == 0:
            raise ZeroDivisionError(
                "denominator %s vanishes at %s" % (p_str(self.den,
                                                         self.field.symbol), x))
        return p_eval(self.num, x) / den

    def denominator_roots(self):
        return self.field.denominators((self,))[1]

    def denominator_labels(self):
        return self.field.denominators((self,))[0]

    def __str__(self):
        n = p_str(self.num, self.field.symbol)
        if self.den == P_ONE:
            return n
        d = p_str(self.den, self.field.symbol)
        if len(self.num) > 1 or (self.num and self.num[0] < 0):
            n = "(%s)" % n
        if len(self.den) > 1:
            d = "(%s)" % d
        return "%s/%s" % (n, d)

    __repr__ = __str__


def _reduce(num, den):
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return P_ZERO, P_ONE
    g = p_gcd(num, den)
    if len(g) > 1:
        num = p_div_exact(num, g)
        den = p_div_exact(den, g)
    c = gcd(p_content(num), p_content(den))
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    if den[-1] < 0:
        num, den = p_neg(num), p_neg(den)
    return num, den


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
        self.zero = RationalFunction(self, P_ZERO, P_ONE, _canonical=True)
        self.one = RationalFunction(self, P_ONE, P_ONE, _canonical=True)
        self.gen = RationalFunction(self, (0, 1), P_ONE, _canonical=True)

    name = property(lambda self: "Q(%s)" % self.symbol)

    def lift(self, fr):
        fr = Fraction(fr)
        num, den = p_from_fraction(fr)
        return RationalFunction(self, num, den, _canonical=True)

    def poly(self, coeffs):
        """Polynomial from a list of Fraction coefficients (low to high)."""
        den = 1
        for c in coeffs:
            den = den * Fraction(c).denominator // gcd(
                den, Fraction(c).denominator)
        num = _trim(int(Fraction(c) * den) for c in coeffs)
        return RationalFunction(self, num, (den,))

    def parse(self, text):
        """Parse "p(x)/q(x)" with integer or rational coefficients."""
        text = text.strip()
        if "/" in text and text.count("/") == 1 and "(" not in text:
            a, b = text.split("/")
            try:
                return self.lift(Fraction(int(a), int(b)))
            except ValueError:
                pass
        return _parse_rational_expr(self, text)

    def is_zero(self, x):
        return not x

    def strip_row(self, row, factor_sink=None):
        """Scale a row by a nonzero scalar to a small canonical form.

        Denominators are cleared by their lcm, then the integer content
        and any common polynomial factor are stripped.  Such a factor
        vanishes at its roots, so when a factor_sink is supplied every
        stripped nonconstant factor is recorded there (its roots are
        candidate rank-drop levels).
        """
        den = P_ONE
        for x in row:
            if x and x.den != P_ONE:
                den = p_mul(den, p_div_exact(x.den, p_gcd(den, x.den)))
        if den != P_ONE:
            scale = RationalFunction(self, den, P_ONE)
            row = [x * scale if x else x for x in row]
        gpoly = None
        for x in row:
            if x:
                gpoly = x.num if gpoly is None else p_gcd(gpoly, x.num)
                if len(gpoly) == 1:
                    break
        if gpoly and (len(gpoly) > 1 or abs(gpoly[0]) > 1):
            if factor_sink is not None and len(gpoly) > 1:
                factor_sink.append(RationalFunction(self, gpoly, P_ONE))
            inv = RationalFunction(self, P_ONE, gpoly)
            row = [x * inv if x else x for x in row]
        return row

    def denominators(self, values):
        """(labels, roots) of the denominators of values.

        Each distinct denominator polynomial is factored once.  The labels
        are its primitive linear factors and its rootless residual, as
        strings; the roots are every rational zero of those denominators.
        """
        labels, roots = set(), set()
        for den in {x.den for x in values} - {P_ONE}:
            factors, residual = p_linear_factors(den)
            for f in factors:
                labels.add(p_str(f, self.symbol))
                roots.add(Fraction(-f[0], f[1]))
            if len(residual) > 1:
                labels.add(p_str(residual, self.symbol))
        return labels, roots

    def denominator_labels(self, x):
        return self.denominators((x,))[0]

    def denominator_roots(self, x):
        return self.denominators((x,))[1]

    def to_str(self, x):
        return str(x)


class Rationals:
    """Adapter giving plain Fractions the same factory interface."""

    symbol = None
    name = "Q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def lift(self, fr):
        return Fraction(fr)

    def is_zero(self, x):
        return x == 0

    def strip_row(self, row, factor_sink=None):
        """Scale a row by a nonzero rational to coprime integer entries."""
        den = 1
        for x in row:
            if x:
                den = lcm(den, x.denominator)
        num_gcd = 0
        for x in row:
            if x:
                num_gcd = gcd(num_gcd, x.numerator * (den // x.denominator))
        if num_gcd == 0:
            return row
        s = Fraction(den, num_gcd)
        return [x * s for x in row]

    def denominators(self, values):
        return set(), set()

    def denominator_labels(self, x):
        return set()

    def denominator_roots(self, x):
        return set()

    def to_str(self, x):
        return str(x)


QQ = Rationals()


def _parse_rational_expr(field, text):
    """Tiny recursive-descent parser for +,-,*,/,^,(), ints and the symbol."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif text[i:].startswith(field.symbol):
            tokens.append(("sym", None))
            i += len(field.symbol)
        elif ch in "+-*/^()":
            tokens.append((ch, None))
            i += 1
        else:
            raise ValueError("bad character %r in %r" % (ch, text))
    pos = [0]

    def peek():
        return tokens[pos[0]][0] if pos[0] < len(tokens) else None

    def take():
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def atom():
        t = peek()
        if t == "int":
            return field.lift(take()[1])
        if t == "sym":
            take()
            return field.gen
        if t == "(":
            take()
            v = expr()
            if peek() != ")":
                raise ValueError("unbalanced parentheses in %r" % text)
            take()
            return v
        if t == "-":
            take()
            return -atom()
        raise ValueError("cannot parse %r" % text)

    def power():
        v = atom()
        while peek() == "^":
            take()
            e = take()
            if e[0] != "int":
                raise ValueError("exponent must be an integer")
            out = field.one
            for _ in range(e[1]):
                out = out * v
            v = out
        return v

    def term():
        v = power()
        while peek() in ("*", "/"):
            op = take()[0]
            w = power()
            v = v * w if op == "*" else v / w
        return v

    def expr():
        t = peek()
        if t == "-":
            take()
            v = -term()
        else:
            v = term()
        while peek() in ("+", "-"):
            op = take()[0]
            w = term()
            v = v + w if op == "+" else v - w
        return v

    out = expr()
    if pos[0] != len(tokens):
        raise ValueError("trailing junk in %r" % text)
    return out

