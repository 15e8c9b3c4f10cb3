"""Exact linear algebra over Q or Q(x).

row_reduce is the one elimination loop; ranks, nullspaces, decompositions
over a fixed family and span tests are all read off its output.  It is
fraction-free in spirit: every row is rescaled by the field's strip_row
to clear denominators and strip content after each elimination step,
which keeps polynomial growth in check at the sizes this engine works
with.
"""


def row_reduce(rows, ncols, field, pivot_sink=None):
    """Return (echelon_rows, pivot_cols); the input rows are not modified.

    pivot_sink, when given, receives every pivot value used and every
    stripped common row factor: divisions by pivots happen during
    elimination and back substitution, so their vanishing loci belong to
    the "denominators crossed" by the computation.
    """
    strip = field.strip_row
    rows = [strip(list(r), pivot_sink) for r in rows]
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
            v = rows[i][col]
            if v:
                f = v / pval
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
                rows[i] = strip(rows[i], pivot_sink)
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def matrix_rank(rows, ncols, field):
    if not rows:
        return 0
    reduced, pivots = row_reduce(rows, ncols, field)
    return len(pivots)


def nullspace(rows, ncols, field, pivot_sink=None):
    """Basis of {v : M v = 0} for M given as a list of rows.

    Basis vectors are normalized to have 1 in their free coordinate and
    appear in increasing free-column order, so the output is deterministic.
    """
    if ncols == 0:
        return []
    if not rows:
        rows = [[field.zero] * ncols]
    reduced, pivots = row_reduce(rows, ncols, field, pivot_sink=pivot_sink)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        # back substitution: pivot rows are mutually reduced already
        for r, pc in zip(reduced, pivots):
            if r[fc]:
                v[pc] = -r[fc] / r[pc]
        basis.append(v)
    return basis


def decompose(family, targets, field):
    """Coordinates of each target over an independent family of vectors.

    [family | targets] is row-reduced once, with the family vectors and the
    targets as its columns.  Returns None when the family is linearly
    dependent; otherwise one entry per target, in order: its coordinate
    list, or None when the target lies outside the span of the family.
    """
    m = len(family)
    rows = [[v[r] for v in family] + [t[r] for t in targets]
            for r in range(len(family[0]))]
    reduced, pivots = row_reduce(rows, m + len(targets), field)
    if pivots[:m] != list(range(m)):
        return None
    # rows past the m-th vanish on the family, so a target is in the span
    # exactly when they vanish on it too; eliminating with them leaves the
    # columns of such targets unchanged
    outside = reduced[m:]
    coords = []
    for j in range(m, m + len(targets)):
        if any(r[j] for r in outside):
            coords.append(None)
        else:
            coords.append([r[j] / r[i] for i, r in enumerate(reduced[:m])])
    return coords


def solve_in_span(vectors, target, field):
    """Coefficients c with sum(c_i * vectors_i) == target, or None.

    Vectors and target are dicts key->coeff.
    """
    keys = set(target)
    for v in vectors:
        keys.update(v)
    keys = sorted(keys)
    if not vectors:
        return [] if not target else None
    # unknowns: coefficients c_i; equations indexed by keys
    rows = []
    rhs = []
    for key in keys:
        rows.append([v.get(key, field.zero) for v in vectors])
        rhs.append(target.get(key, field.zero))
    aug = [row + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = row_reduce(aug, len(vectors) + 1, field)
    n = len(vectors)
    if n in pivots:
        return None  # inconsistent
    sol = [field.zero] * n
    for r, pc in zip(reduced, pivots):
        sol[pc] = r[n] / r[pc]
    # verify (cheap insurance against rank edge cases)
    for key in keys:
        acc = field.zero
        for c, v in zip(sol, vectors):
            acc = acc + c * v.get(key, field.zero)
        if acc != target.get(key, field.zero):
            return None
    return sol
