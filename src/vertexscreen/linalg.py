"""Exact linear algebra over Q or Q(x), on sparse rows {column: entry}.

A row or vector is a dict from column (for decompose, any hashable key)
to entry, and may be empty or store a zero.  row_reduce is the one exact
elimination loop; ranks, decompositions over a fixed family and span
tests are all read off its output, and so are nullspaces over Q(x).  Each
field supplies the elimination step (strip_row, eliminate, quo, dot) on
sparse rows with no stored zeros, fraction-free over both fields: rows
are coprime Python ints over Q and integer polynomials with no common
factor over Q(k).  Where Bareiss (1968) bounds entry growth by exact
division by the previous pivot, each row here is divided by its own gcd
instead.  Only the outputs, coordinate lists, are divided back into
rationals or rational functions.

One sparse forward elimination modulo the prime P = 2^61 - 1,
_echelon_mod_p, has two callers: rank_mod_p (von zur Gathen & Gerhard,
Modern Computer Algebra, 5.4-5.5), with which BRSTComplex.cohomology_dims
certifies its dimensions, and nullspace over Q, which certifies its
rational reconstruction (5.10) by an exact check and falls back to
row_reduce when that fails.
"""

from itertools import chain
from math import isqrt, lcm

from .scalars import P, QQ

_BOUND = isqrt(P // 2)  # the reconstruction bound sqrt(P/2)


def row_reduce(rows, ncols, field, pivot_sink=None, stripped=None):
    """Return (echelon_rows, pivot_cols); the input rows are not modified.

    Each column is pivoted on the first row, in the current order, that
    holds it.  pivot_sink, when given, receives every pivot value used
    and every stripped common row factor, as entries of stripped rows:
    divisions by pivots happen during elimination and back substitution,
    so their vanishing loci belong to the "denominators crossed" by the
    computation.  stripped, when given, receives the stripped input rows.
    """
    eliminate = field.eliminate
    rows = [field.strip_row(r, pivot_sink) for r in rows]
    if stripped is not None:
        stripped.extend(rows)
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if col in rows[i]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        if pivot_sink is not None:
            pivot_sink.append(prow[col])
        for i in range(len(rows)):
            if i != rank and col in rows[i]:
                rows[i] = eliminate(rows[i], prow, col, pivot_sink)
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def matrix_rank(rows, ncols, field):
    return len(row_reduce(rows, ncols, field)[1])


def _coordinate_lists(vecs, ncols, zero):
    return [[v.get(j, zero) for j in range(ncols)] for v in vecs]


def nullspace(rows, ncols, field, pivot_sink=None):
    """Basis of {v : M v = 0}, M given as sparse rows {column: entry}.

    Basis vectors are coordinate lists with 1 in their free coordinate, in
    increasing free-column order, so the output is deterministic.

    Over Q the modular path of _modular_nullspace comes first, leaving
    pivot_sink empty; when it certifies its answer, that answer is the one
    row_reduce gives, entry for entry:

    - The rank of M mod P is at most its rank over Q.  The checked vectors
      lie in the kernel over Q and are independent, and there are
      ncols - rank mod P of them, so they span it and the ranks agree.
    - The vector of a free column fc is supported on fc and on pivot
      columns below fc, so its exact check shows that column fc is in
      the span of the columns before it: fc is free over Q as well.
    - The free columns are then the same, and the basis is the unique
      basis of the kernel over Q that is the identity on them.

    On the row_reduce path each stripped vector is checked against each
    stripped row (field.dot); stripping scales by a nonzero element of the
    field, so AssertionError is raised exactly where M v != 0.
    """
    if ncols == 0:
        return []
    if field.int_row is not None:
        basis = _modular_nullspace(rows, ncols, field)
        if basis is not None:
            return basis
    stripped = []
    reduced, pivots = row_reduce(rows, ncols, field, pivot_sink=pivot_sink,
                                 stripped=stripped)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: field.one}
        # back substitution: pivot rows are mutually reduced already
        for r, pc in zip(reduced, pivots):
            if fc in r:
                v[pc] = -field.quo(r[fc], r[pc])
        basis.append(v)
    vecs = [field.strip_row(v) for v in basis]
    if any(field.dot(r, u) for u in vecs for r in stripped):
        raise AssertionError("a nullspace vector fails the exact check")
    return _coordinate_lists(basis, ncols, field.zero)


def _modular_nullspace(rows, ncols, field):
    """nullspace over Q by elimination mod P, or None when uncertified."""
    # the stored entries in ints, column by column for the check and as
    # sparse rows mod P for the elimination
    columns = [[] for _ in range(ncols)]
    sparse = []
    for i, row in enumerate(rows):
        den, ints = field.int_row(row.values())
        if den % P == 0:
            return None
        r = {}
        for j, x in zip(row, ints):
            columns[j].append((i, x))
            x %= P
            if x:
                r[j] = x
        if r:
            sparse.append(r)
    pivots, tails = _echelon_mod_p(sparse, ncols)
    # back substitution: solution[pc] gives x_pc over the free columns
    pivot_set = set(pivots)
    solution = {}
    for pc, tail in zip(reversed(pivots), reversed(tails)):
        acc = {}
        for j, y in tail:
            if j in pivot_set:
                for fc, c in solution[j].items():
                    acc[fc] = acc.get(fc, 0) - y * c
            else:
                acc[j] = acc.get(j, 0) - y
        solution[pc] = {fc: a % P for fc, a in acc.items() if a % P}
    free = [c for c in range(ncols) if c not in pivot_set]
    vecs = {fc: {fc: field.one} for fc in free}
    known = {}
    for pc, xs in solution.items():
        for fc, a in xs.items():
            q = known.get(a)
            if q is None:
                q = known[a] = _reconstruct(a)
                if q is None:
                    return None
            vecs[fc][pc] = q
    # the exact check, column by column of M
    for vec in vecs.values():
        den = lcm(*[q.denominator for q in vec.values()])
        acc = [0] * len(rows)
        for j, q in vec.items():
            w = q.numerator * (den // q.denominator)
            for i, x in columns[j]:
                acc[i] += x * w
        if any(acc):
            return None
    return _coordinate_lists(vecs.values(), ncols, field.zero)


def _echelon_mod_p(sparse, ncols):
    """Forward elimination of sparse rows {column: nonzero int mod P},
    columns in order.  Returns the pivot columns and each pivot row as the
    items right of its pivot, scaled to 1; the row dicts are used up.

    holders[j] lists the rows that have held column j (lists rather than
    sets keep the peak memory down).  Each column is pivoted on the
    shortest row that holds it, the lowest index among equals:
    Markowitz's rule restricted to the column (Duff, Erisman & Reid,
    Direct Methods for Sparse Matrices, ch. 7).  The pivot columns, and
    so the ranks and the kernel basis read off the tails, do not depend
    on the rule: column j is a pivot exactly when it is not in the span
    of the columns before it.
    """
    holders = [[] for _ in range(ncols)]
    for i, r in enumerate(sparse):
        for j in r:
            holders[j].append(i)
    pivots, tails = [], []
    for col in range(ncols):
        here = {i for i in holders[col]
                if sparse[i] is not None and col in sparse[i]}
        holders[col] = None
        if not here:
            continue
        i = min(here, key=lambda i: (len(sparse[i]), i))
        here.discard(i)
        prow, sparse[i] = sparse[i], None
        inv = pow(prow.pop(col), -1, P)
        tail = [(j, y * inv % P) for j, y in prow.items()]
        for t in here:
            r = sparse[t]
            v = r.pop(col)
            for j, y in tail:
                x = r.get(j)
                if x is None:
                    # v, y != 0 mod P: a new entry fills in
                    r[j] = -v * y % P
                    holders[j].append(t)
                else:
                    x = (x - v * y) % P
                    if x:
                        r[j] = x
                    else:
                        del r[j]
        pivots.append(col)
        tails.append(tail)
    return pivots, tails


def rank_mod_p(rows, ncols, field, k0):
    """Rank mod P of sparse rows {column: entry} at the level k0, through
    field.mod_row, or None where that is undefined.  It is at most the
    rank over the field: a nonzero minor mod P lifts to a nonzero minor."""
    images = [field.mod_row(row, k0) for row in rows]
    if None in images:
        return None
    return len(_echelon_mod_p(images, ncols)[0])


def _reconstruct(a):
    """The rational n/d = a mod P with |n|, d <= sqrt(P/2), or None."""
    r0, r1, t0, t1 = P, a, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > _BOUND:
        return None
    return QQ.quo(r1, t1)


def decompose(family, targets, field):
    """Coordinates of each target over an independent family of vectors.

    Family and targets are sparse vectors {key: entry} on any hashable
    keys.  [family | targets] is row-reduced once, one row per key, with
    the family vectors and the targets as its columns.  Returns None when
    the family is linearly dependent; otherwise one entry per target, in
    order: its coordinate list, or None when the target lies outside the
    span of the family.
    """
    m = len(family)
    rows = {}
    for j, v in enumerate(chain(family, targets)):
        for key, x in v.items():
            rows.setdefault(key, {})[j] = x
    reduced, pivots = row_reduce(list(rows.values()), m + len(targets),
                                 field)
    if pivots[:m] != list(range(m)):
        return None
    # rows past the m-th vanish on the family, so a target is in the span
    # exactly when they vanish on it too; eliminating with them leaves the
    # columns of such targets unchanged
    outside = reduced[m:]
    coords = []
    for j in range(m, m + len(targets)):
        if any(j in r for r in outside):
            coords.append(None)
        else:
            coords.append([field.quo(r[j], r[i]) if j in r else field.zero
                           for i, r in enumerate(reduced[:m])])
    return coords


def solve_in_span(vectors, target, field):
    """Coefficients c with sum(c_i * vectors_i) == target, or None; None
    also when the vectors are linearly dependent.  Sparse vectors on any
    hashable keys, as for decompose."""
    coords = decompose(vectors, [target], field)
    return coords and coords[0]
