"""Simple Lie superalgebras presented by root data.

A datum consists of an indexed basis (Cartan elements first, then one root
vector per root), exact structure constants, parities and an invariant
bilinear form normalized so the highest even root theta has squared length
2.  It is read from a structure-constant table in a JSON file or built
from a matrix realization: elementary matrices for sl_n, supermatrices for
osp(1|2n), each a sparse {(row, col): Rational}.  The structure constants
come first: every super bracket of the basis matrices is decomposed once
over the basis, each root's coordinates are read off [h_i, e_a], and the
form is the supertrace of the products.  Every rational here is a
scalars.Rational (Fraction only parses a JSON datum's "p/q" text, in
_exact).  Half-integer gradings are stored as doubled integers throughout;
no floating point is used anywhere.
"""

import json
from fractions import Fraction

from .errors import InputError
from .linalg import decompose, matrix_rank, nullspace
from .scalars import QQ


class DatumError(InputError, ValueError):
    pass


class NotGoodGrading(InputError, ValueError):
    pass


class DegreeMismatch(NotGoodGrading):
    pass


def _coordinates(family, targets):
    """Exact coordinates of each target over an independent family."""
    coords = decompose(family, targets, QQ)
    if coords is None:
        raise DatumError("basis vectors are linearly dependent")
    if None in coords:
        raise DatumError("vector outside the span of the basis")
    return [tuple(c) for c in coords]


class Root:
    __slots__ = ("coords", "parity", "positive", "name", "simple_coords",
                 "neg_pos")

    def __init__(self, coords, parity, positive):
        self.coords = tuple(coords)   # (alpha(e_1), ..., alpha(e_r))
        self.parity = parity
        self.positive = positive
        self.name = None
        self.simple_coords = None     # integers over the simple roots
        self.neg_pos = None           # position of -alpha in the root list

    def __repr__(self):
        return "Root(%s)" % (self.name or str(self.coords))


class SuperRootDatum:
    """Indexed basis 0..rank-1 = Cartan, rank+i = i-th root vector."""

    def __init__(self, rank, roots, sc, form, letter, label):
        """Completes the roots (negatives, simple coordinates, names with
        the given letter) and finds the simple roots and theta."""
        self.rank = rank
        self.roots = roots
        self.parity = [0] * rank + [r.parity for r in roots]
        self.sc = sc                  # (i, j) -> {l: rational}
        self.form = form              # matrix over the basis
        self.simple, self.theta_pos = _complete_roots(rank, roots, letter)
        self.label = label
        self.nbasis = rank + len(roots)
        self._killing = None

    # -- indexing -----------------------------------------------------------

    def root_index(self, pos):
        return self.rank + pos

    def root_at(self, index):
        return self.roots[index - self.rank]

    def is_root_index(self, index):
        return index >= self.rank

    def basis_name(self, index):
        if index < self.rank:
            return "h%d" % (index + 1)
        return self.roots[index - self.rank].name

    def neg_index(self, index):
        return self.root_index(self.root_at(index).neg_pos)

    def positive_root_positions(self):
        return [p for p, r in enumerate(self.roots) if r.positive]

    # -- algebra ------------------------------------------------------------

    def bracket(self, i, j):
        return self.sc.get((i, j), {})

    def form_entry(self, i, j):
        return self.form[i][j]

    def pairing_to_cartan(self, functional):
        """t in the Cartan with (t|e_l) = functional_l for all l."""
        cols = [{i: self.form[i][j] for i in range(self.rank)}
                for j in range(self.rank)]
        return _coordinates(cols, [dict(enumerate(functional))])[0]

    def killing(self, i, j, span=None):
        """Supertrace of ad(e_i) ad(e_j), from the structure constants.

        sum_b (-1)^p_b sum_m [e_j, e_b]_m [e_i, e_m]_b over the basis
        indices in span, a subalgebra closed under the bracket (all of g
        when None).
        """
        sc, parity = self.sc, self.parity
        total = QQ.zero
        for b in range(self.nbasis) if span is None else span:
            for m, c in sc.get((j, b), {}).items():
                x = sc.get((i, m), {}).get(b)
                if x:
                    total += -c * x if parity[b] else c * x
        return total

    def killing_matrix(self):
        """The Killing form over the basis, computed once per datum."""
        if self._killing is None:
            self._killing = tuple(
                tuple(self.killing(i, j) for j in range(self.nbasis))
                for i in range(self.nbasis))
        return self._killing

    # -- invariants ---------------------------------------------------------

    def check_invariants(self):
        """Exhaustive exactness checks; raises DatumError on failure."""
        n = self.nbasis
        p = self.parity
        # even supersymmetric form
        for i in range(n):
            for j in range(n):
                if p[i] != p[j] and self.form[i][j] != 0:
                    raise DatumError("form is not even")
                if self.form[i][j] != (-1) ** (p[i] * p[j]) * self.form[j][i]:
                    raise DatumError("form is not supersymmetric")
        # super anti-symmetry of the bracket
        for (i, j), comb in self.sc.items():
            mirror = self.bracket(j, i)
            for l, c in comb.items():
                if mirror.get(l, QQ.zero) != -(-1) ** (p[i] * p[j]) * c:
                    raise DatumError("structure constants not super-antisymmetric")
        # invariance ([a,b]|c) = (a|[b,c])
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    lhs = sum(c * self.form[m][l]
                              for m, c in self.bracket(i, j).items())
                    rhs = sum(c * self.form[i][m]
                              for m, c in self.bracket(j, l).items())
                    if lhs != rhs:
                        raise DatumError("form is not invariant")
        self.check_jacobi()
        if self.theta_norm() != 2:
            raise DatumError("(theta|theta) != 2")
        return True

    def check_jacobi(self):
        n = self.nbasis
        p = self.parity
        for a in range(n):
            for b in range(n):
                ab = self.bracket(a, b)
                for c in range(n):
                    acc = {}
                    for m, x in self.bracket(b, c).items():
                        for l, y in self.bracket(a, m).items():
                            acc[l] = acc.get(l, QQ.zero) + x * y
                    for m, x in ab.items():
                        for l, y in self.bracket(m, c).items():
                            acc[l] = acc.get(l, QQ.zero) - x * y
                    sgn = (-1) ** (p[a] * p[b])
                    for m, x in self.bracket(a, c).items():
                        for l, y in self.bracket(b, m).items():
                            acc[l] = acc.get(l, QQ.zero) - sgn * x * y
                    if any(acc.values()):
                        raise DatumError(
                            "Jacobi superidentity fails on (%d,%d,%d)" % (a, b, c))
        return True

    def theta_norm(self):
        theta = self.roots[self.theta_pos]
        t = self.pairing_to_cartan(theta.coords)
        return sum(c * x for c, x in zip(theta.coords, t))

    def dual_coxeter(self):
        """h_dual with kappa = 2 h_dual (.|.) on the even part, verified."""
        kappa = self.killing_matrix()
        hd = None
        for i in range(self.nbasis):
            for j in range(self.nbasis):
                if self.parity[i] == 0 == self.parity[j] and self.form[i][j]:
                    if hd is None:
                        hd = kappa[i][j] / (2 * self.form[i][j])
                    if kappa[i][j] != 2 * hd * self.form[i][j]:
                        raise DatumError("Killing form is not proportional "
                                         "to the invariant form on the even part")
        if hd is None:
            raise DatumError("even part pairs to zero")
        return hd


# ---------------------------------------------------------------------------
# matrix-model construction


def _root_name(simple_coords, letter):
    parts = []
    for i, c in enumerate(simple_coords):
        if c == 0:
            continue
        sym = "%s%d" % (letter, i + 1)
        if c == 1:
            parts.append("+" + sym)
        elif c == -1:
            parts.append("-" + sym)
        else:
            parts.append("%+d%s" % (c, sym))
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


def _complete_roots(rank, roots, letter):
    """Fill in each root's negative, simple coordinates and name.

    Returns (simple root positions, position of theta).  The simple roots
    are the indecomposable positive roots in list order, and theta is the
    first even positive root of greatest height.
    """
    by_coords = {}
    for p, r in enumerate(roots):
        if r.coords in by_coords:
            raise DatumError("duplicate root")
        by_coords[r.coords] = p
    for r in roots:
        r.neg_pos = by_coords.get(tuple(-c for c in r.coords))
        if r.neg_pos is None:
            raise DatumError("root system is not symmetric")
    positive = [p for p, r in enumerate(roots) if r.positive]
    even = [p for p in positive if roots[p].parity == 0]
    if not even:
        raise DatumError("no even positive root")
    pos_coords = {roots[p].coords for p in positive}
    simple = [p for p in positive if not any(
        tuple(x - y for x, y in zip(roots[p].coords, b)) in pos_coords
        for b in pos_coords if b != roots[p].coords)]
    if len(simple) != rank:
        raise DatumError("rank does not match the number of simple roots")
    for r, sc in zip(roots, _coordinates(
            [dict(enumerate(roots[p].coords)) for p in simple],
            [dict(enumerate(r.coords)) for r in roots])):
        if any(x.denominator != 1 for x in sc):
            raise DatumError("root outside the root lattice")
        r.simple_coords = tuple(int(x) for x in sc)
        r.name = _root_name(r.simple_coords, letter)
    return simple, max(even, key=lambda p: sum(roots[p].simple_coords))


def _super_bracket(x, y, sign):
    """x y - sign * y x of sparse matrices {(row, col): Rational}."""
    out = {}
    for (a, b), u in x.items():
        for (c, d), v in y.items():
            if b == c:
                out[a, d] = out.get((a, d), QQ.zero) + u * v
            if d == a:
                out[c, b] = out.get((c, b), QQ.zero) - sign * v * u
    return {key: v for key, v in out.items() if v}


def _datum_from_matrices(rank, cartan, root_entries, space_parity, letter,
                         label):
    """The datum of a sparse matrix model.

    root_entries: list of (matrix, parity, positive_flag).  Every super
    bracket of the basis is decomposed once into the structure constants;
    each root is then read off [h_i, e_a] = alpha(h_i) e_a.
    """
    basis = cartan + [m for m, _, _ in root_entries]
    parity = [0] * rank + [par for _, par, _ in root_entries]
    pairs = [(i, j) for i in range(len(basis)) for j in range(len(basis))]
    brackets = [_super_bracket(basis[i], basis[j],
                               (-1) ** (parity[i] * parity[j]))
                for i, j in pairs]
    sc = {}
    for ij, coords in zip(pairs, _coordinates(basis, brackets)):
        comb = {l: c for l, c in enumerate(coords) if c}
        if comb:
            sc[ij] = comb
    roots = []
    for b, (_, par, positive) in enumerate(root_entries, rank):
        weights = [sc.get((i, b), {}) for i in range(rank)]
        if any(set(w) - {b} for w in weights):
            raise DatumError("root vector is not an ad-eigenvector")
        roots.append(Root([w.get(b, QQ.zero) for w in weights], par,
                          positive))

    # supertrace form str(x y), rescaled so (theta|theta) = 2
    form = [[sum((u * y.get((b, a), QQ.zero) * (-1) ** space_parity[a]
                  for (a, b), u in x.items()), QQ.zero)
             for y in basis] for x in basis]
    datum = SuperRootDatum(rank, roots, sc, form, letter, label)
    norm = datum.theta_norm()
    if norm == 0:
        raise DatumError("theta has zero norm")
    if norm != 2:
        datum.form = [[x * 2 / norm for x in row] for row in form]
    return datum


def build_sl(n):
    """sl_n from elementary matrices; trace form, all parities even."""
    if n < 2:
        raise DatumError("sl_n needs n >= 2")
    one = QQ.one
    cartan = [{(i, i): one, (i + 1, i + 1): -one} for i in range(n - 1)]
    root_entries = [({(i, j): one}, 0, i < j)
                    for i in range(n) for j in range(n) if i != j]
    return _datum_from_matrices(n - 1, cartan, root_entries, [0] * n, "a",
                                "sl%d" % n)


def build_osp(n):
    """osp(1|2n) in the (1|2n) supermatrix model, beta_n odd and short.

    Rows and columns are 0 (even), then i and n + i for i = 1..n, the
    paired symplectic indices.
    """
    if n < 1:
        raise DatumError("osp(1|2n) needs n >= 1")
    one = QQ.one
    span = range(1, n + 1)
    cartan = [{(i, i): one, (n + i, n + i): -one} for i in span]
    # even roots of sp(2n): eps_i - eps_j, then +-2 eps_i and +-(eps_i+eps_j)
    root_entries = [({(i, j): one, (n + j, n + i): -one}, 0, i < j)
                    for i in span for j in span if i != j]
    for i in span:
        root_entries += [({(i, n + i): one}, 0, True),
                         ({(n + i, i): one}, 0, False)]
        for j in range(i + 1, n + 1):
            root_entries += [({(i, n + j): one, (j, n + i): one}, 0, True),
                             ({(n + j, i): one, (n + i, j): one}, 0, False)]
    # odd roots +-eps_i
    for i in span:
        root_entries += [({(i, 0): one, (0, n + i): -one}, 1, True),
                         ({(n + i, 0): one, (0, i): one}, 1, False)]
    return _datum_from_matrices(n, cartan, root_entries, [0] + [1] * (2 * n),
                                "b", "osp(1|%d)" % (2 * n))


# ---------------------------------------------------------------------------
# good gradings


class GoodGrading:
    """A half-integer grading of the datum, good for the nilpotent f.

    Once validated it carries what the grading derives: the restricted
    base (base), the shifted form tau_k (levelform) and chi.
    """

    def __init__(self, datum, labels2, f_support):
        self.datum = datum
        self.labels2 = dict(labels2)   # simple-root position -> doubled label
        self.f_support = list(f_support)  # positions of positive roots
        self._validate()
        self.base = RestrictedBase(self)
        self.levelform = LevelForm(self)
        self.chi = ChiFunctional(self)

    def _validate(self):
        d = self.datum
        for p in self.labels2:
            if p not in d.simple:
                raise NotGoodGrading("label on %s, which is not a simple root"
                                     % d.roots[p].name)
        for p in d.simple:
            if p not in self.labels2:
                raise NotGoodGrading("missing label for simple root %s"
                                     % d.roots[p].name)
            if self.labels2[p] not in (0, 1, 2):
                raise NotGoodGrading(
                    "simple-root labels must be 0, 1/2 or 1 (doubled 0,1,2)")
        label_vec = [self.labels2[p] for p in d.simple]
        self.deg2 = [0] * d.nbasis
        for pos, root in enumerate(d.roots):
            self.deg2[d.root_index(pos)] = sum(
                c * l for c, l in zip(root.simple_coords, label_vec))
        for p in self.f_support:
            root = d.roots[p]
            if not root.positive:
                raise DegreeMismatch("f support must consist of positive roots")
            if self.deg2[d.root_index(p)] != 2:
                raise DegreeMismatch(
                    "f component e_{-%s} does not sit in degree -1"
                    % root.name)
        self.f_indices = [d.neg_index(d.root_index(p)) for p in self.f_support]
        self._check_good()

    def slice_indices(self, j2):
        return [b for b in range(self.datum.nbasis) if self.deg2[b] == j2]

    def _check_good(self):
        """ad f must map degree j injectively for j >= 1/2 and onto degree
        j - 1 for j <= 1/2; the matrix of each slice, as sparse rows
        indexed by degree j - 1 with columns indexed by degree j, is kept
        for centralizer_generators."""
        d = self.datum
        self._ad_f = {}
        for j2 in sorted(set(self.deg2)):
            src = self.slice_indices(j2)
            pos = {l: i for i, l in enumerate(self.slice_indices(j2 - 2))}
            rows = [{} for _ in pos]
            for j, b in enumerate(src):
                for fi in self.f_indices:
                    for l, c in d.bracket(fi, b).items():
                        if l in pos:
                            row = rows[pos[l]]
                            row[j] = row.get(j, 0) + c
            self._ad_f[j2] = rows
            # a matrix and its transpose have the same rank
            rank = matrix_rank(rows, len(src), QQ)
            if j2 >= 1 and rank != len(src):
                raise NotGoodGrading(
                    "ad f not injective on degree %s" % _half(j2))
            if j2 <= 1 and rank != len(rows):
                raise NotGoodGrading(
                    "ad f not surjective onto degree %s" % _half(j2 - 2))

    # -- derived sets --------------------------------------------------------

    def g0_indices(self):
        return self.slice_indices(0)

    def gle0_indices(self):
        return [b for b in range(self.datum.nbasis) if self.deg2[b] <= 0]

    def g0_is_cartan(self):
        return len(self.g0_indices()) == self.datum.rank

    def delta_half_indices(self):
        """Basis indices of root vectors in degree +1/2."""
        return [b for b in self.slice_indices(1) if self.datum.is_root_index(b)]

    def restricted_positive_indices(self):
        """Basis indices of positive roots of positive degree."""
        d = self.datum
        return [d.root_index(p) for p, r in enumerate(d.roots)
                if r.positive and self.deg2[d.root_index(p)] > 0]

    def centralizer_generators(self):
        """Homogeneous basis of g^f as [(basis comb dict, deg2, parity)]."""
        d = self.datum
        out = []
        for j2, rows in sorted(self._ad_f.items()):
            src = self.slice_indices(j2)
            # combinations sum c_b [f, e_b] = 0
            for coeffs in nullspace(rows, len(src), QQ):
                comb = {b: c for b, c in zip(src, coeffs) if c}
                pars = {d.parity[b] for b in comb}
                if len(pars) != 1:
                    raise DatumError("mixed parity in centralizer slice")
                out.append((comb, j2, pars.pop()))
        return out


def _half(j2):
    return "%d" % (j2 // 2) if j2 % 2 == 0 else "%d/2" % j2


def good_grading(datum, labels, f_support):
    """Validated GoodGrading.

    labels: {simple root name or position: doubled label},
    f_support: iterable of positive-root names or positions (f = sum e_{-a}).
    """
    name_to_pos = {datum.roots[p].name: p for p in range(len(datum.roots))}

    def position(key):
        if isinstance(key, int):
            if not 0 <= key < len(datum.roots):
                raise DatumError("root position %d out of range" % key)
            return key
        if key not in name_to_pos:
            raise DatumError("unknown root name %r" % (key,))
        return name_to_pos[key]

    labels2 = {position(key): int(val) for key, val in labels.items()}
    support = [position(key) for key in f_support]
    return GoodGrading(datum, labels2, support)


# ---------------------------------------------------------------------------
# restricted base


class RestrictedBase:
    def __init__(self, grading):
        d = grading.datum
        self.grading = grading
        pos = grading.restricted_positive_indices()
        coords = {d.root_at(b).coords for b in pos}
        self.pi_half = []
        for b in sorted(pos, key=lambda b: (grading.deg2[b],
                                            d.root_at(b).simple_coords)):
            a = d.root_at(b).coords
            dec = any(tuple(x - y for x, y in zip(a, c)) in coords
                      for c in coords)
            if not dec:
                self.pi_half.append(b)
        self.split = {1: [b for b in self.pi_half if grading.deg2[b] == 1],
                      2: [b for b in self.pi_half if grading.deg2[b] == 2]}
        if set(self.split[1]) | set(self.split[2]) != set(self.pi_half):
            raise NotGoodGrading("restricted base member of degree > 1")
        # classes: alpha ~ beta iff alpha - beta lies in the degree-0 root
        # lattice, i.e. they agree at every simple root of nonzero label
        classes = {}
        for b in self.pi_half:
            key = tuple(c for c, p in zip(d.root_at(b).simple_coords, d.simple)
                        if grading.labels2[p])
            classes.setdefault(key, []).append(b)
        self.classes = list(classes.values())

    def describe(self):
        d = self.grading.datum
        return {
            "pi_half": [d.root_at(b).name for b in self.pi_half],
            "degree_half": [d.root_at(b).name for b in self.split[1]],
            "degree_one": [d.root_at(b).name for b in self.split[2]],
            "classes": [[d.root_at(b).name for b in cls]
                        for cls in self.classes],
        }


# ---------------------------------------------------------------------------
# level-dependent form, chi


class LevelForm:
    """tau(u|v) = k (u|v) + 1/2 kappa_g(u|v) - 1/2 kappa_{g0}(u|v).

    Entries are stored as (constant, k-coefficient) rational pairs.
    """

    def __init__(self, grading):
        datum = self.datum = grading.datum
        self.grading = grading
        self.killing_g = datum.killing_matrix()
        self.h_dual = datum.dual_coxeter()
        g0 = grading.g0_indices()
        self.g0 = g0
        pos = {b: i for i, b in enumerate(g0)}
        for b in g0:
            for j in g0:
                for l, c in datum.bracket(b, j).items():
                    if c and l not in pos:
                        raise DatumError("g_0 is not closed under the bracket")
        self.killing_g0 = [[datum.killing(i, j, g0) for j in g0] for i in g0]
        self._g0_pos = pos

    def tau_pair(self, i, j):
        """(constant, k-coefficient) of tau(e_i|e_j)."""
        const = self.killing_g[i][j] / 2
        if i in self._g0_pos and j in self._g0_pos:
            const -= self.killing_g0[self._g0_pos[i]][self._g0_pos[j]] / 2
        return const, self.datum.form[i][j]

    def tau_scalar(self, field, level, i, j):
        const, lin = self.tau_pair(i, j)
        return field.lift(const) + level * field.lift(lin)


class ChiFunctional:
    """chi(u) = (f|u); supported on degree -1."""

    def __init__(self, grading):
        datum = self.datum = grading.datum
        self.grading = grading
        self.values = []
        for b in range(datum.nbasis):
            v = sum((datum.form[fi][b] for fi in grading.f_indices), QQ.zero)
            self.values.append(v)
        # f sits in degree -1, so the form pairs it against degree +1 only
        for b in range(datum.nbasis):
            if self.values[b] and grading.deg2[b] != 2:
                raise DatumError("chi does not vanish outside degree +1")

    def of_index(self, b):
        return self.values[b]

    def of_comb(self, comb):
        return sum(c * self.values[b] for b, c in comb.items())


# ---------------------------------------------------------------------------
# JSON datum files


def datum_to_json(datum):
    doc = {
        "rank": datum.rank,
        "label": datum.label,
        "roots": [{
            "coords": [str(c) for c in r.coords],
            "parity": r.parity,
            "positive": r.positive,
        } for r in datum.roots],
        "structure_constants": sorted(
            [i, j, l, str(c)]
            for (i, j), comb in datum.sc.items() for l, c in comb.items()),
        "form": [[str(x) for x in row] for row in datum.form],
    }
    return doc


def datum_from_json(doc):
    """Load a datum from the JSON schema; validated by the same invariants.

    Basis indices: 0..rank-1 are Cartan elements, rank+i is the i-th entry
    of "roots".  The rank, indices and parities are ints, rationals ints or
    "p/q" strings (_exact refuses a float or a bool), a root's "positive"
    a bool or absent; half-integer grading labels elsewhere in the
    toolchain are doubled integers.
    """
    if not isinstance(doc, dict):
        raise DatumError("a datum is a JSON object, not %s"
                         % type(doc).__name__)
    missing = [key for key in ("rank", "roots", "structure_constants", "form")
               if key not in doc]
    if missing:
        raise DatumError("datum lacks %s" % ", ".join(map(repr, missing)))
    try:
        rank = _exact(doc["rank"], int, "rank")
        roots = []
        for p, spec in enumerate(doc["roots"]):
            coords = [_exact(c, QQ.lift, "roots[%d] coordinate" % p)
                      for c in spec["coords"]]
            if len(coords) != rank:
                raise DatumError("a root has %d coordinates, not rank %d"
                                 % (len(coords), rank))
            positive = spec.get("positive", _lex_positive(coords))
            if positive.__class__ is not bool:
                raise DatumError("roots[%d] positive must be true or false, "
                                 "not %r" % (p, positive))
            parity = _exact(spec["parity"], int, "roots[%d] parity" % p)
            if parity not in (0, 1):
                raise DatumError("root parity must be 0 or 1")
            roots.append(Root(coords, parity, positive))
        nbasis = rank + len(roots)
        sc = {}
        for n, (i, j, l, c) in enumerate(doc["structure_constants"]):
            what = "structure_constants[%d]" % n
            i, j, l = (_exact(x, int, what + " index") for x in (i, j, l))
            if not all(0 <= x < nbasis for x in (i, j, l)):
                raise DatumError("structure constant index out of range")
            sc.setdefault((i, j), {})[l] = _exact(c, QQ.lift, what)
        form = [[_exact(x, QQ.lift, "form[%d][%d]" % (r, c))
                 for c, x in enumerate(row)]
                for r, row in enumerate(doc["form"])]
        if len(form) != nbasis or any(len(row) != nbasis for row in form):
            raise DatumError("form must be %d x %d" % (nbasis, nbasis))
    except DatumError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise DatumError("malformed datum: %s: %s"
                         % (type(exc).__name__, exc)) from None
    datum = SuperRootDatum(rank, roots, sc, form, "s",
                           doc.get("label", "loaded"))
    datum.check_invariants()
    return datum


def _exact(x, read, what):
    """int(x), or the Rational read(Fraction(x)) of an int or "p/q" text, of
    a JSON value that is not a float or a bool: int() would truncate a
    float and Fraction() read its binary value, so nothing is rounded."""
    if isinstance(x, (float, bool)):
        raise DatumError("%s must be %s, not %r" % (
            what, "an int" if read is int else 'an int or a "p/q" string',
            x))
    return int(x) if read is int else read(Fraction(x))


def load_datum(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatumError(exc) from exc
    return datum_from_json(doc)


def _lex_positive(coords):
    for c in coords:
        if c > 0:
            return True
        if c < 0:
            return False
    raise DatumError("zero root")
