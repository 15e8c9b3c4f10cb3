"""BRST reduction, cohomology, and the classical free-field models.

Contains the reduced BRST complex (currents J^u for u of non-positive
degree, charged fermions phi^a for positive restricted roots, neutral
fermions Phi_a), its differential as a super-derivation determined by the
generator tables, graded cohomology from certified ranks mod P, the Miura
projection, and the two families of distinguished models: the odd-field
W-superalgebra built from n bosons and a free fermion, and the lattice
realization on V_xi together with the Wakimoto-style homomorphism from the
degree-zero currents of the subregular reduction.
"""

from .errors import InputError
from .linalg import matrix_rank, nullspace, rank_mod_p
from .presets import build_preset
from .scalars import RationalFunctionField
from .screening import image_rows, set_free_field_tables
from .vertexcalc import (
    FieldExpr, Module, comb, bracket, derive,
    field_state, flat_table, graded_basis, normal_order, state_acc, state_sum,
    trimmed,
)


class TopCoefficientMismatch(AssertionError):
    pass


class NonZeroCharge(ValueError):
    pass


class ModelTooSmall(InputError, ValueError):
    pass


# ---------------------------------------------------------------------------
# the reduced BRST complex

_K0 = (1234567, 7654321)  # the levels of cohomology_dims' ranks mod P


class BRSTComplex:
    """C = V^{tau}(g_{<=0}) (x) F^{charged} (x) F^{neutral} with d_(0).

    The differential acts as the odd derivation fixed by its values on the
    generators (the lambda = 0 coefficients of the standard, neutral and
    chi components); d_(0)^2 = 0 is checked by the test suite rather than
    assumed.
    """

    def __init__(self, grading, field, level):
        self.datum = grading.datum
        self.grading = grading
        self.field = field
        self.level = level
        self._build()

    def _build(self):
        d, g = self.datum, self.grading
        field = self.field
        sys = self.system = Module(field)
        self.gle0 = g.gle0_indices()
        self.restricted_pos = g.restricted_positive_indices()
        self.half = g.delta_half_indices()
        self.jgen = {}
        for b in self.gle0:
            self.jgen[b] = sys.add_gen("J[%s]" % d.basis_name(b),
                                       parity=d.parity[b],
                                       weight2=2 - g.deg2[b], current=True)
        self.phigen = {}
        for b in self.restricted_pos:
            self.phigen[b] = sys.add_gen("ph[%s]" % d.basis_name(b),
                                         parity=(d.parity[b] + 1) % 2,
                                         weight2=g.deg2[b], charge=1)
        self.neutral = {}
        for b in self.half:
            self.neutral[b] = sys.add_gen("Phi[%s]" % d.basis_name(b),
                                          parity=d.parity[b], weight2=1)
        set_free_field_tables(sys, g, self.level, self.jgen, self.neutral)
        # charged fermions against currents:
        # [phi^a_lambda J^u] = sum_b c^a_{u,b} phi^b
        for b in self.restricted_pos:
            for u in self.gle0:
                terms = []
                for b2 in self.restricted_pos:
                    c = d.bracket(u, b2).get(b)
                    if c:
                        terms.append((self.phigen[b2], 0, field.lift(c)))
                if terms:
                    sys.set_bracket(self.phigen[b], self.jgen[u],
                                    {0: comb(sys, terms=sorted(terms))})
        self._build_differential()
        self._d0_memo = {}

    # -- the differential tables ------------------------------------------------

    def a_k(self, v, w):
        """lambda-coefficient of ph^w in d J^v: the supertrace of
        ad(e_v) pi_{>0} ad(e_w) plus k (e_v|e_w).

        Since [e_v, e_m] has parity p(v) + p(m), that supertrace is
        (-1)^p(v) str_{g>0}(ad e_w ad e_v).
        """
        d, g, field = self.datum, self.grading, self.field
        acc = d.killing(w, v, [b for b in range(d.nbasis) if g.deg2[b] > 0])
        if d.parity[v]:
            acc = -acc
        return field.lift(acc) + self.level * field.lift(d.form_entry(v, w))

    def _build_differential(self):
        d, field, chi = self.datum, self.field, self.grading.chi
        gens, ph = self.system.gens, self.phigen

        def add(terms, c, *letters):
            """terms += c * the word of letters (g, m), Koszul-sorted."""
            word, sign = koszul_sorted(letters, gens)
            state_acc(terms, {(word, None): c if sign > 0 else -c},
                      field.one, field)

        self.d0_image = {}
        for u in self.gle0:
            terms = {}
            # one pass over b: the standard (:J^l ph^b: and a_k d ph^b),
            # neutral (c^a_{u,b} :Phi_a ph^b:) and chi (chi([u, e_b]) ph^b)
            # components
            for b2 in self.restricted_pos:
                ub = d.bracket(u, b2)
                for l, c in ub.items():
                    if l in self.jgen:
                        add(terms, field.lift(-(-1) ** d.parity[l] * c),
                            (self.jgen[l], 0), (ph[b2], 0))
                    elif l in self.neutral:
                        add(terms, field.lift(c), (self.neutral[l], 0),
                            (ph[b2], 0))
                akv = self.a_k(u, b2)
                if akv:
                    add(terms, akv, (ph[b2], 1))
                val = chi.of_comb(ub)
                if val:
                    add(terms, field.lift(val), (ph[b2], 0))
            self.d0_image[self.jgen[u]] = FieldExpr(self.system, terms)

        for b in self.restricted_pos:
            terms = {}
            for b2 in self.restricted_pos:
                for b3 in self.restricted_pos:
                    c = d.bracket(b2, b3).get(b)
                    if c:
                        sgn = (-1) ** (d.parity[b] * d.parity[b2])
                        add(terms, field.lift(-sgn * c / 2),
                            (ph[b2], 0), (ph[b3], 0))
            self.d0_image[ph[b]] = FieldExpr(self.system, terms)

        for b in self.half:
            terms = {}
            for b2 in self.half:
                val = chi.of_comb(d.bracket(b2, b))
                if val and b2 in ph:
                    add(terms, field.lift(val), (ph[b2], 0))
            self.d0_image[self.neutral[b]] = FieldExpr(self.system, terms)

    # -- d_(0) as an odd derivation on states ------------------------------------

    def d0_mono(self, word, tag):
        key = (word, tag)
        out = self._d0_memo.get(key)
        if out is not None:
            return out
        field = self.field
        sys_ = self.system
        out = {}
        if word:
            (g, m) = word[0]
            rest = word[1:]
            img = self.d0_image.get(g)
            if img is not None:
                mono = {(rest, tag): field.one}
                for (w, mom), c in img.terms.items():
                    sys_.word_coeff_acc(out, w, mom, -m - 1, mono, c)
            odd = sys_.gens[g].parity
            for (w, t), c in self.d0_mono(rest, tag).items():
                state_acc(out, sys_.gen_mode(g, m, w, t), -c if odd else c,
                          field)
            out = trimmed(out)
        self._d0_memo[key] = out
        return out

    def d0_state(self, state):
        return state_sum(((self.d0_mono(w, t), c)
                          for (w, t), c in state.items()), self.field)

    # -- graded pieces and cohomology ---------------------------------------------

    def pieces(self, weight2):
        """{charge: monomials} of the complex at one doubled weight."""
        out = {}
        for key in graded_basis(self.system, weight2):
            out.setdefault(self.system.word_charge(key[0]), []).append(key)
        return out

    def _d0_columns(self, src, dst):
        """d_(0) on each monomial of src, as {position in dst: coefficient}."""
        pos = {key: i for i, key in enumerate(dst)}
        return [{pos[m]: c for m, c in self.d0_mono(*key).items()}
                for key in src]

    def cohomology_dims(self, weight2_max):
        """{(weight2, charge): dim H} for all charges at each weight.

        Each weight is ranked mod P at a level k0 of _K0 first.  Where
        mod_row is defined a rank mod P is at most the exact one, so
        H^c(k0, P) >= H^c >= 0 for every charge c (d_(0)^2 = 0), and both
        alternating sums are the Euler characteristic sum((-1)^c dim C^c).
        So if H^c(k0, P) = 0 for all c != 0, H^c = 0 and H^0 = H^0(k0, P).
        A weight that no k0 certifies is ranked exactly, by matrix_rank on
        the same columns: a matrix and its transpose have the same rank.
        """
        out = {}
        for w2 in range(0, weight2_max + 1):
            pieces = self.pieces(w2)
            arrows = [(c, len(pieces.get(c + 1, [])),
                       self._d0_columns(src, pieces.get(c + 1, [])))
                      for c, src in sorted(pieces.items())]
            for k0 in _K0 + (None,):
                dims = self._dims(arrows, k0)
                if dims is not None and not any(dims[c] for c in dims if c):
                    break
            out.update(((w2, c), h) for c, h in dims.items())
        return out

    def _dims(self, arrows, k0):
        """{charge: dim H} from the ranks of one weight's d_(0) arrows mod P
        at k0 (exact when k0 is None); None where mod_row is undefined."""
        ranks, dims, field = {}, {}, self.field
        for c, n_dst, cols in arrows:
            r = (rank_mod_p(cols, n_dst, field, k0) if k0 is not None
                 else matrix_rank(cols, n_dst, field))
            if r is None:
                return None
            ranks[c] = r
            dims[c] = len(cols) - r - ranks.get(c - 1, 0)
        return dims

    def h0_basis(self, weight2):
        """Kernel of d_(0) on the charge-zero piece (no incoming arrows)."""
        src = self.pieces(weight2).get(0, [])
        rows = image_rows([self.d0_state], src, self.field)
        return [{key: c for key, c in zip(src, v) if c}
                for v in nullspace(rows, len(src), self.field)]


def build_complex(grading, field, level):
    return BRSTComplex(grading, field, level)


# ---------------------------------------------------------------------------
# Miura projection


def koszul_sorted(letters, gens):
    """The sorted word of letters (g, m) and the sign of the sort: -1 to the
    number of pairs of odd letters (parity of gens[g]) it swaps."""
    odd = [l for l in letters if gens[l[0]].parity]
    swaps = sum(1 for i, a in enumerate(odd) for b in odd[i + 1:] if b < a)
    return tuple(sorted(letters)), (-1) ** swaps


def miura_project(brst, state, ctx):
    """Kill all current letters of negative degree; identify the rest with
    the screening ambient of ctx (same g_0 currents and neutral fermions),
    reordering each word with the sign of its odd letters."""
    field = brst.field
    bad = {brst.jgen[b] for b in brst.gle0 if brst.grading.deg2[b] < 0}
    rename = {}
    for b, gidx in brst.jgen.items():
        if brst.grading.deg2[b] == 0:
            rename[gidx] = ctx.current_of_basis[b]
    for b, gidx in brst.neutral.items():
        rename[gidx] = ctx.fermion_of_root[b]
    out = {}
    for (word, tag), c in state.items():
        if tag[0] != "m":
            raise NonZeroCharge("projection defined on vacuum states")
        if any(brst.system.gens[g].charge for (g, _) in word):
            raise NonZeroCharge("projection needs a charge-zero state")
        if any(g in bad for (g, _) in word):
            continue
        new_word, sign = koszul_sorted(
            [(rename[g], m) for (g, m) in word], ctx.system.gens)
        state_acc(out, {(new_word, ctx.system.vacuum_tag()):
                        c if sign > 0 else -c}, field.one, field)
    return trimmed(out)


# ---------------------------------------------------------------------------
# the odd-field model on n bosons and a fermion


class WBnFields:
    """Currents b_1..b_n with [b_i lambda b_j] = delta_ij lambda, an odd
    fermion with [Psi lambda Psi] = 1, and the odd generating field
    G = :(c d + b_1) ... (c d + b_n) Psi: for the coupling c = gamma, an
    element of field."""

    def __init__(self, n, field, gamma):
        self.n = n
        self.field = field
        self.gamma = gamma
        sys = self.system = Module(field)
        self.bgen = [sys.add_gen("b%d" % (i + 1), parity=0, weight2=2,
                                 current=True) for i in range(n)]
        self.psi = sys.add_gen("Psi", parity=1, weight2=1)
        for i in range(n):
            sys.set_bracket(self.bgen[i], self.bgen[i],
                            {1: comb(sys, const=field.one)})
        sys.set_bracket(self.psi, self.psi, {0: comb(sys, const=field.one)})
        out = sys.gen_field(self.psi)
        for i in range(n - 1, -1, -1):
            b = sys.gen_field(self.bgen[i])
            out = derive(out).scale(gamma) + normal_order(b, out)
        self.G = out


class WBnModel(WBnFields):
    """The fields of WBnFields with [G lambda G] and the W_i it expands into,
    at the coupling g, the generator of Q(g)."""

    def __init__(self, n):
        field = RationalFunctionField("g")
        super().__init__(n, field, field.gen)
        self.gamma_consts = self._gamma_consts()
        self.brackets = bracket(self.G, self.G)
        self.W = self._solve_w()

    def _gamma_consts(self):
        # gamma_i = prod_{j<=i} (1 - 2j(2j-1) gamma^2)
        out = {0: self.field.one}
        g2 = self.gamma * self.gamma
        acc = self.field.one
        for j in range(1, self.n + 1):
            acc = acc * (self.field.one - self.field.lift(2 * j * (2 * j - 1)) * g2)
            out[j] = acc
        return out

    def _solve_w(self):
        """W_0 .. W_{2n-2} from the expansion
        [G_l G] = W_0 + sum_i gamma_i (W_{2i-1} l^{2i-1}/(2i-1)! + W_{2i} l^{2i}/(2i)!)
                 + gamma_n l^{2n}/(2n)!."""
        field = self.field
        zero = self.system.zero_field()
        top = self.brackets.get(2 * self.n, zero)
        expected_top = FieldExpr(self.system, {((), None): self.gamma_consts[self.n]})
        if top != expected_top:
            raise TopCoefficientMismatch(
                "top lambda coefficient is %s, expected %s"
                % (top, expected_top))
        w = {0: self.brackets.get(0, zero)}
        for i in range(1, self.n):
            inv = field.one / self.gamma_consts[i]
            w[2 * i - 1] = self.brackets.get(2 * i - 1, zero).scale(inv)
            w[2 * i] = self.brackets.get(2 * i, zero).scale(inv)
        return w

    def c2_reduce(self, fe):
        """Image in the quotient by two-mode descendants: keep words whose
        letters all have derivative order zero and no lattice factor."""
        terms = {k: v for k, v in fe.terms.items()
                 if k[1] is None and all(d == 0 for (_, d) in k[0])}
        return FieldExpr(self.system, terms)

    def expected_w2i_c2(self, i):
        """sum over j_1 < ... < j_{n-i} of :b^2 ... b^2: in the quotient."""
        from itertools import combinations
        terms = {}
        for combo in combinations(range(self.n), self.n - i):
            word = tuple(sorted((self.bgen[j], 0) for j in combo for _ in (0, 1)))
            terms[(word, None)] = self.field.one
        return FieldExpr(self.system, terms)

    def check_c2_congruences(self):
        """The quotient form of the expansion; returns a list of failures."""
        bad = []
        zero = self.system.zero_field()
        for i in range(0, self.n):
            got = self.c2_reduce(self.W[2 * i] if i else self.W[0])
            want = self.expected_w2i_c2(i)
            if got != want:
                bad.append(("W_%d" % (2 * i), got, want))
        for i in range(1, self.n):
            lam_odd = self.c2_reduce(self.brackets.get(2 * i - 1, zero))
            if not lam_odd.is_zero():
                bad.append(("lambda^%d" % (2 * i - 1), lam_odd, zero))
        return bad


def verify_wbn_screening(n):
    """Q_i G = 0 for the n screening charges, over Q(s) with s = gamma_+.

    Q_i = Res e^{int s a_i} for i < n and Res :e^{int s a_n} Psi: for the
    short root; a_i = b_i - b_{i+1}, a_n = b_n.  Returns the WBnFields and
    the failing witnesses.
    """
    # gamma through s = gamma_+ with gamma_+ gamma_- = -1
    field = RationalFunctionField("s")
    s = field.gen
    model = WBnFields(n, field, s - field.one / s)
    gstate = field_state(model.G)
    failures = []
    for i in range(1, n + 1):
        coords = [field.zero] * n
        coords[i - 1] = s
        if i < n:
            coords[i] = -s
        word = () if i < n else ((model.psi, 0),)
        mu = model.system.momentum_tag(coords)
        img = model.system.word_coeff_state(word, mu, -1, gstate)
        if img:
            failures.append((i, img))
    return model, failures


# ---------------------------------------------------------------------------
# the lattice model on V_xi and the Wakimoto-style homomorphism


class W2nModel:
    """Heisenberg span {a_{n-1},...,a_1, psi, xi} with the level-shifted
    Gram matrix, the lattice algebra V_xi, the generators E = e^{xi} and
    F = :P e^{-xi}:, and the momenta of the screenings e^{int a_i} and
    e^{int psi}."""

    def __init__(self, n):
        if n < 2:
            raise ModelTooSmall("needs n >= 2")
        self.n = n
        field = self.field = RationalFunctionField("k")
        k = self.k = field.gen
        sys = self.system = Module(field)
        self.agen = [sys.add_gen("a%d" % (n - 1 - i), parity=0, weight2=2,
                                 current=True) for i in range(n - 1)]
        self.agen.reverse()  # agen[i-1] is a_i
        self.psig = sys.add_gen("psi", parity=0, weight2=2, current=True)
        self.xig = sys.add_gen("xi", parity=0, weight2=2, current=True)
        kn = k + field.lift(n)
        for a, prev in reversed(list(zip(self.agen, [self.psig] + self.agen))):
            sys.set_bracket(a, a, {1: comb(sys, const=kn * 2)})
            sys.set_bracket(a, prev, {1: comb(sys, const=-kn)})
        sys.set_bracket(self.psig, self.psig,
                        {1: comb(sys, const=field.one)})
        sys.set_bracket(self.psig, self.xig, {1: comb(sys, const=field.one)})
        self.E = self.exp_field({self.xig: field.one})
        self.F = self._assemble(self._build_p_words(),
                                self.exp_field({self.xig: -field.one}))

    def exp_field(self, comps):
        return self.system.exp_field(self.coords(comps))

    def coords(self, comps):
        out = [self.field.zero] * len(self.system.currents)
        for g, c in comps.items():
            out[self.system.current_pos[g]] = c
        return tuple(out)

    def _build_p_words(self):
        """Formal expansion of
        P = -((k+n-1) d + psi + a_1 + ... + a_{n-1}) ... ((k+n-1) d + psi + a_1) psi
        as free noncommutative words [(letters, coeff)], letters = (gen, der)."""
        field = self.field
        kn1 = self.k + field.lift(self.n - 1)
        words = [(((self.psig, 0),), field.one)]
        for j in range(1, self.n):
            nxt = {}

            def add(word, c):
                state_acc(nxt, {word: c}, field.one, field)

            for word, c in words:
                # (k+n-1) d acts by Leibniz on the whole word
                for i in range(len(word)):
                    g, dd = word[i]
                    add(word[:i] + ((g, dd + 1),) + word[i + 1:], c * kn1)
                add(((self.psig, 0),) + word, c)
                for i in range(1, j + 1):
                    add(((self.agen[i - 1], 0),) + word, c)
            words = list(trimmed(nxt).items())
        return [(w, -c) for (w, c) in words]

    def _assemble(self, words, tail):
        """Right-nested normal ordering of formal words into the field tail."""
        def nested(word):
            cur = tail
            for (g, dd) in reversed(word):
                cur = normal_order(self.system.gen_field(g, dd), cur)
            return cur

        return sum((nested(word).scale(c) for word, c in words),
                   self.system.zero_field())

    def rewritten_f(self, steps=None):
        """The pulled-inside form with (d + xi(z)) factors acting on :psi e^{-xi}:.

        Step j dresses the field X so far as
        (k+n-1) (d X + :xi X:) + :(psi + a_1 + ... + a_j) X:; all n - 1
        steps give F, the first alone the Wakimoto image of e_{-a1}."""
        field = self.field
        kn1 = self.k + field.lift(self.n - 1)
        xi = self.system.gen_field(self.xig)
        out = normal_order(self.system.gen_field(self.psig),
                           self.exp_field({self.xig: -field.one}))
        for j in range(1, (self.n if steps is None else steps + 1)):
            dressing = self.system.gen_field(self.psig)
            for i in range(1, j + 1):
                dressing = dressing + self.system.gen_field(self.agen[i - 1])
            out = (derive(out) + normal_order(xi, out)).scale(kn1) + \
                normal_order(dressing, out)
        return out.scale(field.lift(-1))

    def screening_momenta(self):
        """The momentum tags of a_1, ..., a_{n-1} and psi."""
        return [self.system.momentum_tag(self.coords({g: self.field.one}))
                for g in self.agen + [self.psig]]


def verify_fs(model):
    """A_i and Q annihilate E and F; returns failing witnesses."""
    failures = []
    for name, fe in (("E", model.E), ("F", model.F)):
        st = field_state(fe)
        for i, mu in enumerate(model.screening_momenta()):
            img = model.system.word_coeff_state((), mu, -1, st)
            if img:
                label = "A%d" % (i + 1) if i < model.n - 1 else "Q"
                failures.append((label, name, img))
    return failures


class WakimotoMap:
    """The generator substitution from the degree-zero currents of the
    subregular reduction of sl_n (the sl{n}-subregular preset) into the
    lattice model, with exact verification of all current brackets."""

    def __init__(self, n):
        grading = build_preset("sl%d-subregular" % n)
        self.model = W2nModel(n)
        field = self.model.field
        self.field = field
        d = self.datum = grading.datum
        self.grading = grading
        k = field.gen
        m = self.model
        sys = m.system

        def cur(g, c=None):
            return sys.gen_field(g).scale(c) if c is not None \
                else sys.gen_field(g)

        # Cartan: h_1, h_2, h_i
        h_images = [cur(m.xig, k + field.lift(n - 2)) +
                    cur(m.psig).scale(field.lift(2)) + cur(m.agen[0]),
                    cur(m.xig) - cur(m.psig) + cur(m.agen[1])]
        for i in range(3, n):
            h_images.append(cur(m.agen[i - 1]))
        # e_{a1} and e_{-a1}
        a1 = (1,) + (0,) * (d.rank - 1)
        root_images = {a1: m.E,
                       tuple(-c for c in a1): m.rewritten_f(steps=1)}
        self.g0 = grading.g0_indices()
        self.image_of_basis = {}
        for b in self.g0:
            root = d.root_at(b) if b >= d.rank else None
            img = h_images[b] if root is None \
                else root_images.get(root.simple_coords)
            if img is None:
                raise ValueError("unexpected degree-zero root %s" % root.name)
            self.image_of_basis[b] = img

    def image_of_comb(self, comb_dict):
        return sum((self.image_of_basis[b].scale(self.field.lift(c))
                    for b, c in comb_dict.items()),
                   self.model.system.zero_field())

    def verify_brackets(self):
        """[pi(u) lambda pi(v)] == pi([u,v]) + tau(u|v) lambda, all pairs."""
        d, lf = self.datum, self.grading.levelform
        field = self.field
        failures = []
        checked = 0
        for u in self.g0:
            for v in self.g0:
                got = bracket(self.image_of_basis[u], self.image_of_basis[v])
                tau = lf.tau_scalar(field, field.gen, u, v)
                want = {0: self.image_of_comb(d.bracket(u, v)),
                        1: self.model.system.one_field().scale(tau)}
                checked += 1
                if flat_table(got) != flat_table(want):
                    failures.append(((d.basis_name(u), d.basis_name(v)), got))
        return checked, failures
