"""Simple Lie superalgebras presented by root data.

A datum is built from an explicit matrix realization (elementary matrices
for sl_n, supermatrices for osp(1|2n), or a structure-constant table read
from a JSON file).  It consists of an indexed basis (Cartan elements first,
then one root vector per root), exact structure constants, parities and an
invariant bilinear form normalized so the highest even root theta has
squared length 2.  Half-integer gradings are stored as doubled integers
throughout; no floating point is used anywhere.
"""

import json
from fractions import Fraction

from .linalg import decompose, matrix_rank, nullspace
from .scalars import QQ


class DatumError(ValueError):
    pass


class NotGoodGrading(ValueError):
    pass


class DegreeMismatch(NotGoodGrading):
    pass


# ---------------------------------------------------------------------------
# small exact-matrix helpers (lists of Fraction lists)


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(p):
                    if bk[j]:
                        oi[j] += x * bk[j]
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[x * s for x in row] for row in a]


def mat_zero_p(a):
    return all(all(x == 0 for x in row) for row in a)


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

    def __init__(self, rank, roots, parity, sc, form, simple_positions,
                 theta_pos, label):
        self.rank = rank
        self.roots = roots
        self.parity = parity          # per basis index
        self.sc = sc                  # (i, j) -> {l: Fraction}
        self.form = form              # matrix over the basis
        self.simple = simple_positions
        self.theta_pos = theta_pos
        self.label = label
        self.nbasis = rank + len(roots)
        self._ad = {}
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
        cols = [[self.form[i][j] for i in range(self.rank)]
                for j in range(self.rank)]
        return _coordinates(cols, [functional])[0]

    def adjoint(self, i):
        """Matrix of ad(e_i) over the basis, columns = images."""
        if i not in self._ad:
            mat = [[Fraction(0)] * self.nbasis for _ in range(self.nbasis)]
            for j in range(self.nbasis):
                for l, c in self.bracket(i, j).items():
                    mat[l][j] = c
            self._ad[i] = mat
        return self._ad[i]

    def supertrace(self, mat):
        return sum((-1) ** self.parity[b] * mat[b][b]
                   for b in range(self.nbasis))

    def killing(self, i, j):
        return self.supertrace(mat_mul(self.adjoint(i), self.adjoint(j)))

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
                if mirror.get(l, Fraction(0)) != -(-1) ** (p[i] * p[j]) * c:
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
                            acc[l] = acc.get(l, Fraction(0)) + x * y
                    for m, x in ab.items():
                        for l, y in self.bracket(m, c).items():
                            acc[l] = acc.get(l, Fraction(0)) - x * y
                    sgn = (-1) ** (p[a] * p[b])
                    for m, x in self.bracket(a, c).items():
                        for l, y in self.bracket(b, m).items():
                            acc[l] = acc.get(l, Fraction(0)) - sgn * x * y
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


def _datum_from_matrices(rank, cartan_mats, root_entries, space_parity,
                         letter, label):
    """root_entries: list of (matrix, parity, positive_flag)."""
    dim_amb = len(cartan_mats[0])

    def super_bracket(x, y, px, py):
        m = mat_sub(mat_mul(x, y), mat_scale(mat_mul(y, x), (-1) ** (px * py)))
        return m

    roots = []
    for m, par, pos in root_entries:
        coords = []
        for h in cartan_mats:
            br = super_bracket(h, m, 0, par)
            c = None
            for a in range(dim_amb):
                for b in range(dim_amb):
                    if m[a][b]:
                        c = br[a][b] / m[a][b]
                        break
                if c is not None:
                    break
            if not mat_zero_p(mat_sub(br, mat_scale(m, c))):
                raise DatumError("root vector is not an ad-eigenvector")
            coords.append(c)
        roots.append(Root(coords, par, pos))

    # negatives
    by_coords = {}
    for p, r in enumerate(roots):
        by_coords[r.coords] = p
    for p, r in enumerate(roots):
        r.neg_pos = by_coords[tuple(-c for c in r.coords)]

    # simple roots: indecomposable positive roots, in builder order
    pos_positions = [p for p, r in enumerate(roots) if r.positive]
    pos_coords = {roots[p].coords for p in pos_positions}
    simple_positions = []
    for p in pos_positions:
        a = roots[p].coords
        decomposable = any(
            tuple(x - y for x, y in zip(a, b)) in pos_coords
            for b in pos_coords if b != a
            and tuple(x - y for x, y in zip(a, b)) != tuple([0] * rank))
        if not decomposable:
            simple_positions.append(p)
    if len(simple_positions) != rank:
        raise DatumError("wrong number of simple roots")

    # simple coordinates by solving over the simple-root coordinate vectors
    for r, sc in zip(roots, _coordinates(
            [roots[p].coords for p in simple_positions],
            [r.coords for r in roots])):
        if any(x.denominator != 1 for x in sc):
            raise DatumError("root not an integer combination of simple roots")
        r.simple_coords = tuple(int(x) for x in sc)
        r.name = _root_name(r.simple_coords, letter)

    # structure constants over the indexed basis
    basis_mats = cartan_mats + [m for m, _, _ in root_entries]
    parity = [0] * rank + [r.parity for r in roots]
    n = rank + len(roots)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    brackets = [super_bracket(basis_mats[i], basis_mats[j],
                              parity[i], parity[j]) for i, j in pairs]
    sc_table = {}
    for ij, coords in zip(pairs, _coordinates(
            [_flatten(m) for m in basis_mats],
            [_flatten(m) for m in brackets])):
        comb = {l: c for l, c in enumerate(coords) if c}
        if comb:
            sc_table[ij] = comb

    # supertrace form, rescaled so (theta|theta) = 2
    def strace(m):
        return sum((-1) ** space_parity[a] * m[a][a] for a in range(dim_amb))

    raw = [[strace(mat_mul(basis_mats[i], basis_mats[j])) for j in range(n)]
           for i in range(n)]
    # highest even root: unique even positive root of maximal height
    best, best_h = None, None
    for p in pos_positions:
        if roots[p].parity == 0:
            h = sum(roots[p].simple_coords)
            if best_h is None or h > best_h:
                best, best_h = p, h
            elif h == best_h:
                raise DatumError("highest even root is not unique")
    datum = SuperRootDatum(rank, roots, parity, sc_table, raw,
                           simple_positions, best, label)
    norm = datum.theta_norm()
    if norm == 0:
        raise DatumError("theta has zero norm")
    if norm != 2:
        datum.form = mat_scale(raw, Fraction(2) / norm)
    return datum


def _flatten(m):
    return [x for row in m for x in row]


def build_sl(n):
    """sl_n from elementary matrices; trace form, all parities even."""
    if n < 2:
        raise DatumError("sl_n needs n >= 2")
    rank = n - 1

    def unit(i, j):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][j] = Fraction(1)
        return m

    cartan = []
    for i in range(rank):
        h = [[Fraction(0)] * n for _ in range(n)]
        h[i][i] = Fraction(1)
        h[i + 1][i + 1] = Fraction(-1)
        cartan.append(h)
    root_entries = []
    for i in range(n):
        for j in range(n):
            if i != j:
                root_entries.append((unit(i, j), 0, i < j))
    return _datum_from_matrices(rank, cartan, root_entries, [0] * n, "a",
                                "sl%d" % n)


def build_osp(n):
    """osp(1|2n) in the (1|2n) supermatrix model, beta_n odd and short."""
    if n < 1:
        raise DatumError("osp(1|2n) needs n >= 1")
    dim = 1 + 2 * n
    parity_space = [0] + [1] * (2 * n)

    def unit(i, j):
        m = [[Fraction(0)] * dim for _ in range(dim)]
        m[i][j] = Fraction(1)
        return m

    def add(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    # symplectic block indices: rows/cols 1..n and n+1..2n
    def r(i):
        return i  # 1-based "upper" index

    def s(i):
        return n + i  # 1-based "lower" index

    cartan = [mat_sub(unit(r(i), r(i)), unit(s(i), s(i)))
              for i in range(1, n + 1)]
    root_entries = []
    # even roots of sp(2n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:  # eps_i - eps_j
                m = mat_sub(unit(r(i), r(j)), unit(s(j), s(i)))
                root_entries.append((m, 0, i < j))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i == j:
                root_entries.append((unit(r(i), s(i)), 0, True))    # 2 eps_i
                root_entries.append((unit(s(i), r(i)), 0, False))   # -2 eps_i
            else:
                m = add(unit(r(i), s(j)), unit(r(j), s(i)))
                root_entries.append((m, 0, True))                   # eps_i+eps_j
                m = add(unit(s(j), r(i)), unit(s(i), r(j)))
                root_entries.append((m, 0, False))
    # odd roots +-eps_i:  X_v with v = e_i resp. e_{n+i}
    for i in range(1, n + 1):
        m = mat_sub(unit(r(i), 0), unit(0, s(i)))
        root_entries.append((m, 1, True))                           # eps_i
        m = add(unit(s(i), 0), unit(0, r(i)))
        root_entries.append((m, 1, False))                          # -eps_i
    return _datum_from_matrices(n, cartan, root_entries, parity_space, "b",
                                "osp(1|%d)" % (2 * n))


# ---------------------------------------------------------------------------
# good gradings


class GoodGrading:
    """A half-integer grading of the datum, good for the nilpotent f."""

    def __init__(self, datum, labels2, f_support):
        self.datum = datum
        self.labels2 = dict(labels2)   # simple-root position -> doubled label
        self.f_support = list(f_support)  # positions of positive roots
        self._validate()

    def _validate(self):
        d = self.datum
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
        self.x_coords = self._solve_x()

    def slice_indices(self, j2):
        return [b for b in range(self.datum.nbasis) if self.deg2[b] == j2]

    def _check_good(self):
        d = self.datum
        degrees = sorted(set(self.deg2))
        for j2 in degrees:
            src = self.slice_indices(j2)
            dst = self.slice_indices(j2 - 2)
            rows = []
            for b in src:
                img = {}
                for fi in self.f_indices:
                    for l, c in d.bracket(fi, b).items():
                        img[l] = img.get(l, Fraction(0)) + c
                rows.append([img.get(l, Fraction(0)) for l in dst])
            rank = matrix_rank(rows, len(dst), QQ)
            if j2 >= 1 and rank != len(src):
                raise NotGoodGrading(
                    "ad f not injective on degree %s" % _half(j2))
            if j2 <= 1 and rank != len(dst):
                raise NotGoodGrading(
                    "ad f not surjective onto degree %s" % _half(j2 - 2))

    def _solve_x(self):
        d = self.datum
        rows = [d.roots[p].coords for p in d.simple]
        rhs = [Fraction(self.labels2[p], 2) for p in d.simple]
        # want x with alpha_i(x) = rhs_i, i.e. sum_l x_l alpha_i(e_l) = rhs_i
        return _coordinates(list(zip(*rows)), [rhs])[0]

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
        for j2 in sorted(set(self.deg2)):
            src = self.slice_indices(j2)
            if not src:
                continue
            dst = sorted(set(l for b in src for fi in self.f_indices
                             for l in d.bracket(fi, b)))
            rows = []
            for b in src:
                img = {}
                for fi in self.f_indices:
                    for l, c in d.bracket(fi, b).items():
                        img[l] = img.get(l, Fraction(0)) + c
                rows.append([img.get(l, Fraction(0)) for l in dst])
            # combinations sum c_b [f, e_b] = 0: the kernel of the transpose
            for coeffs in nullspace(list(zip(*rows)), len(src), QQ):
                comb = {b: c for b, c in zip(src, coeffs) if c}
                par = d.parity[src[0]] if src else 0
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
    labels2 = {}
    for key, val in labels.items():
        pos = key if isinstance(key, int) else name_to_pos[key]
        labels2[pos] = int(val)
    support = []
    for key in f_support:
        pos = key if isinstance(key, int) else name_to_pos[key]
        support.append(pos)
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
        pi0 = {p for p in d.simple if grading.labels2[p] == 0}
        self.split = {1: [b for b in self.pi_half if grading.deg2[b] == 1],
                      2: [b for b in self.pi_half if grading.deg2[b] == 2]}
        if set(self.split[1]) | set(self.split[2]) != set(self.pi_half):
            raise NotGoodGrading("restricted base member of degree > 1")
        # classes: alpha ~ beta iff alpha - beta lies in the degree-0 root lattice
        pi0_positions = sorted(pi0)
        classes = []
        for b in self.pi_half:
            placed = False
            for cls in classes:
                a0 = d.root_at(cls[0]).simple_coords
                a1 = d.root_at(b).simple_coords
                diff = [x - y for x, y in zip(a1, a0)]
                ok = True
                for idx, spos in enumerate(d.simple):
                    if diff[idx] != 0 and spos not in pi0:
                        ok = False
                        break
                if ok:
                    cls.append(b)
                    placed = True
                    break
            if not placed:
                classes.append([b])
        self.classes = classes

    def class_of(self, index):
        for cls in self.classes:
            if index in cls:
                return cls
        raise KeyError(index)

    def describe(self):
        d = self.grading.datum
        return {
            "pi_half": [d.root_at(b).name for b in self.pi_half],
            "degree_half": [d.root_at(b).name for b in self.split[1]],
            "degree_one": [d.root_at(b).name for b in self.split[2]],
            "classes": [[d.root_at(b).name for b in cls]
                        for cls in self.classes],
        }


def restricted_base(grading):
    return RestrictedBase(grading)


# ---------------------------------------------------------------------------
# level-dependent form, chi


class LevelForm:
    """tau(u|v) = k (u|v) + 1/2 kappa_g(u|v) - 1/2 kappa_{g0}(u|v).

    Entries are stored as (constant, k-coefficient) Fraction pairs.
    """

    def __init__(self, datum, grading):
        self.datum = datum
        self.grading = grading
        self.killing_g = datum.killing_matrix()
        self.h_dual = datum.dual_coxeter()
        g0 = grading.g0_indices()
        self.g0 = g0
        pos = {b: i for i, b in enumerate(g0)}
        ad0 = []
        for b in g0:
            mat = [[Fraction(0)] * len(g0) for _ in range(len(g0))]
            for j in g0:
                for l, c in datum.bracket(b, j).items():
                    if l in pos:
                        mat[pos[l]][pos[j]] = c
                    elif c:
                        raise DatumError("g_0 is not closed under the bracket")
            ad0.append(mat)
        self.killing_g0 = [[
            sum((-1) ** datum.parity[g0[a]]
                * mat_mul(ad0[i], ad0[j])[a][a] for a in range(len(g0)))
            for j in range(len(g0))] for i in range(len(g0))]
        self._g0_pos = pos

    def tau_pair(self, i, j):
        """(constant, k-coefficient) of tau(e_i|e_j)."""
        const = Fraction(1, 2) * self.killing_g[i][j]
        if i in self._g0_pos and j in self._g0_pos:
            const -= Fraction(1, 2) * \
                self.killing_g0[self._g0_pos[i]][self._g0_pos[j]]
        return const, self.datum.form[i][j]

    def tau_scalar(self, field, level, i, j):
        const, lin = self.tau_pair(i, j)
        return field.lift(const) + level * field.lift(lin)


def tau_form(datum, grading):
    return LevelForm(datum, grading)


class ChiFunctional:
    """chi(u) = (f|u); supported on degree -1."""

    def __init__(self, datum, grading):
        self.datum = datum
        self.grading = grading
        self.values = []
        for b in range(datum.nbasis):
            v = sum(datum.form[fi][b] for fi in grading.f_indices)
            self.values.append(v)
        # f sits in degree -1, so the form pairs it against degree +1 only
        for b in range(datum.nbasis):
            if self.values[b] and grading.deg2[b] != 2:
                raise DatumError("chi does not vanish outside degree +1")

    def of_index(self, b):
        return self.values[b]

    def of_comb(self, comb):
        return sum(c * self.values[b] for b, c in comb.items())


def chi(datum, grading):
    return ChiFunctional(datum, grading)


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
    of "roots".  Rationals are "p/q" strings; half-integer grading labels
    elsewhere in the toolchain are doubled integers.
    """
    rank = int(doc["rank"])
    roots = []
    for spec in doc["roots"]:
        coords = [Fraction(c) for c in spec["coords"]]
        positive = spec.get("positive")
        if positive is None:
            positive = _lex_positive(coords)
        roots.append(Root(coords, int(spec["parity"]), bool(positive)))
    by_coords = {}
    for p, r in enumerate(roots):
        if r.coords in by_coords:
            raise DatumError("duplicate root")
        by_coords[r.coords] = p
    for r in roots:
        neg = tuple(-c for c in r.coords)
        if neg not in by_coords:
            raise DatumError("root system is not symmetric")
        r.neg_pos = by_coords[neg]
    sc = {}
    for i, j, l, c in doc["structure_constants"]:
        sc.setdefault((int(i), int(j)), {})[int(l)] = Fraction(c)
    form = [[Fraction(x) for x in row] for row in doc["form"]]
    parity = [0] * rank + [r.parity for r in roots]

    pos_positions = [p for p, r in enumerate(roots) if r.positive]
    pos_coords = {roots[p].coords for p in pos_positions}
    simple = []
    for p in pos_positions:
        a = roots[p].coords
        dec = any(tuple(x - y for x, y in zip(a, b)) in pos_coords
                  for b in pos_coords if b != a)
        if not dec:
            simple.append(p)
    if len(simple) != rank:
        raise DatumError("rank does not match the number of simple roots")
    for r, scarr in zip(roots, _coordinates(
            [roots[p].coords for p in simple], [r.coords for r in roots])):
        if any(x.denominator != 1 for x in scarr):
            raise DatumError("root outside the root lattice")
        r.simple_coords = tuple(int(x) for x in scarr)
        r.name = _root_name(r.simple_coords, "s")
    best, best_h = None, None
    for p in pos_positions:
        if roots[p].parity == 0:
            h = sum(roots[p].simple_coords)
            if best_h is None or h > best_h:
                best, best_h = p, h
    datum = SuperRootDatum(rank, roots, parity, sc, form, simple, best,
                           doc.get("label", "loaded"))
    datum.check_invariants()
    return datum


def load_datum(path):
    with open(path) as fh:
        doc = json.load(fh)
    return datum_from_json(doc)


def _lex_positive(coords):
    for c in coords:
        if c > 0:
            return True
        if c < 0:
            return False
    raise DatumError("zero root")
