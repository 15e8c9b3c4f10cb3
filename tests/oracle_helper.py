"""Values the tests compare the engine against, worked out apart from it:
the roots that denominator labels name, and the W^(2)_n lattice Gram."""

import re
from fractions import Fraction


def label_roots(labels):
    """The zero -p/q of each linear label q*k+p (as scalars.p_str writes a
    primitive linear factor, q > 0); the other labels have no rational
    zero."""
    roots = set()
    for label in labels:
        m = re.fullmatch(r"(\d*)\*?k([+-]\d+)?", label)
        if m:
            roots.add(Fraction(-int(m[2] or 0), int(m[1] or 1)))
    return roots


def w2n_gram(F, n):
    """The Gram of W2nModel(n), n = 2 or 3, in current order a_{n-1}, ...,
    a_1, psi, xi: (a_i|a_i) = 2(k+n), (a_i|a_{i+1}) = (a_1|psi) = -(k+n),
    (psi|psi) = (psi|xi) = 1, and 0 elsewhere."""
    kn, one, zero = F.gen + n, F.one, F.zero
    return {2: [[kn * 2, -kn, zero],
                [-kn, one, one],
                [zero, one, zero]],
            3: [[kn * 2, -kn, zero, zero],
                [-kn, kn * 2, -kn, zero],
                [zero, -kn, one, one],
                [zero, zero, one, zero]]}[n]


def lambda1_gram(system):
    """The lambda^1 constants among the currents of system's bracket table,
    read in both orders, zero where the table has no entry."""
    zero = system.field.zero
    return [[system.brackets.get((g, h), {}).get(1, {}).get(((), None),
                                                            zero)
             for h in system.currents] for g in system.currents]
