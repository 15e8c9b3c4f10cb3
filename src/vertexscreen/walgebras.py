"""BRST reduction, cohomology, and the classical free-field models.

Contains the reduced BRST complex (currents J^u for u of non-positive
degree, charged fermions phi^a for positive restricted roots, neutral
fermions Phi_a), its differential as a super-derivation determined by the
generator tables, graded cohomology by exact rank computation, the Miura
projection, and the two families of distinguished models: the odd-field
W-superalgebra built from n bosons and a free fermion, and the lattice
realization on V_xi together with the Wakimoto-style homomorphism from the
degree-zero currents of the subregular reduction.
"""

from fractions import Fraction

from .linalg import matrix_rank, nullspace
from .scalars import QQ, RationalFunctionField
from .vertexcalc import (
    FieldExpr, GenSystem, comb, apply_field_coeff, bracket, derive,
    field_state, graded_basis, normal_order, state_add, state_scale,
)


class TopCoefficientMismatch(AssertionError):
    pass


class BracketMismatch(AssertionError):
    pass


class NonZeroCharge(ValueError):
    pass


# ---------------------------------------------------------------------------
# the reduced BRST complex


class BRSTComplex:
    """C = V^{tau}(g_{<=0}) (x) F^{charged} (x) F^{neutral} with d_(0).

    The differential acts as the odd derivation fixed by its values on the
    generators (the lambda = 0 coefficients of the standard, neutral and
    chi components); d_(0)^2 = 0 is checked by the test suite rather than
    assumed.
    """

    def __init__(self, datum, grading, levelform, chifun, field, level):
        self.datum = datum
        self.grading = grading
        self.levelform = levelform
        self.chi = chifun
        self.field = field
        self.level = field.lift(level) if isinstance(level, (int, Fraction)) \
            else level
        self._build()

    def _build(self):
        d, g = self.datum, self.grading
        field = self.field
        sys = GenSystem(field, "%s brst" % d.label)
        self.gle0 = g.gle0_indices()
        self.restricted_pos = g.restricted_positive_indices()
        self.half = [b for b in range(d.nbasis)
                     if d.is_root_index(b) and g.deg2[b] == 1]
        self.jgen = {}
        for b in self.gle0:
            self.jgen[b] = sys.add_gen("J[%s]" % d.basis_name(b),
                                       parity=d.parity[b],
                                       weight2=2 - g.deg2[b], current=True)
        self.n_j = len(self.gle0)
        self.phigen = {}
        for b in self.restricted_pos:
            self.phigen[b] = sys.add_gen("ph[%s]" % d.basis_name(b),
                                         parity=(d.parity[b] + 1) % 2,
                                         weight2=g.deg2[b], charge=1)
        self.neutral = {}
        for b in self.half:
            self.neutral[b] = sys.add_gen("Phi[%s]" % d.basis_name(b),
                                          parity=d.parity[b], weight2=1)
        gram = [[self.levelform.tau_scalar(field, self.level, b, b2)
                 for b2 in self.gle0] for b in self.gle0]
        sys.set_pairing(gram)
        # current-current
        for i, b in enumerate(self.gle0):
            for b2 in self.gle0[i:]:
                terms = []
                for l, c in d.bracket(b, b2).items():
                    if l in self.jgen:
                        terms.append((self.jgen[l], 0, field.lift(c)))
                    elif c:
                        raise ValueError("g_{<=0} is not bracket-closed")
                entries = {}
                if terms:
                    entries[0] = comb(terms=terms)
                tau = gram[i][self.gle0.index(b2)]
                if not field.is_zero(tau):
                    entries[1] = comb(const=tau)
                if entries:
                    sys.set_bracket(self.jgen[b], self.jgen[b2], entries)
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
                                    {0: comb(terms=sorted(terms))})
        # neutral fermions: central pairing through chi
        for i, b in enumerate(self.half):
            for b2 in self.half[i:]:
                val = self.chi.of_comb(d.bracket(b, b2))
                if val:
                    sys.set_bracket(self.neutral[b], self.neutral[b2],
                                    {0: comb(const=field.lift(val))})
        self.system = sys
        self.module = sys.module()
        self._build_differential()
        self._d0_memo = {}

    # -- the differential tables ------------------------------------------------

    def _phi_word(self, b1, b2):
        """Canonical field for :ph^{b1} ph^{b2}: (zero mutual bracket)."""
        g1, g2 = self.phigen[b1], self.phigen[b2]
        sign = 1
        if g1 > g2:
            p1 = self.system.gens[g1].parity
            p2 = self.system.gens[g2].parity
            sign = (-1) ** (p1 * p2)
            g1, g2 = g2, g1
        if g1 == g2 and self.system.gens[g1].parity:
            return None, 0
        return (((g1, 0), (g2, 0)),), sign

    def _build_differential(self):
        d, g = self.datum, self.grading
        field = self.field
        sys = self.system
        self.d0_image = {}
        p_plus = [b for b in range(d.nbasis) if g.deg2[b] > 0]
        adm = {b: d.adjoint(b) for b in range(d.nbasis)}

        def a_k(v, w):
            acc = Fraction(0)
            av, aw = adm[v], adm[w]
            for b in range(d.nbasis):
                for m in p_plus:
                    acc += (-1) ** d.parity[b] * av[b][m] * aw[m][b]
            return field.lift(acc) + self.level * field.lift(d.form_entry(v, w))

        self.a_k = a_k

        for u in self.gle0:
            terms = {}
            # standard component, lambda^0
            for b2 in self.restricted_pos:
                for l, c in d.bracket(u, b2).items():
                    if l in self.jgen:
                        sgn = (-1) ** d.parity[l]
                        word = ((self.jgen[l], 0), (self.phigen[b2], 0))
                        key = (word, None)
                        add = field.lift(-sgn * c)
                        terms[key] = terms.get(key, field.zero) + add
                akv = a_k(u, b2)
                if not field.is_zero(akv):
                    key = (((self.phigen[b2], 1),), None)
                    terms[key] = terms.get(key, field.zero) + akv
            # neutral component: sum c^a_{u,b} :Phi_a ph^b:
            for b2 in self.restricted_pos:
                for l, c in d.bracket(u, b2).items():
                    if l in self.neutral:
                        gph = self.phigen[b2]
                        gph_p = self.system.gens[gph].parity
                        gn = self.neutral[l]
                        gn_p = self.system.gens[gn].parity
                        if gph < gn:
                            word = ((gph, 0), (gn, 0))
                            sgn = (-1) ** (gph_p * gn_p)
                        else:
                            word = ((gn, 0), (gph, 0))
                            sgn = 1
                        key = (word, None)
                        terms[key] = terms.get(key, field.zero) + \
                            field.lift(sgn * c)
            # chi component: sum chi([u, e_b]) ph^b
            for b2 in self.restricted_pos:
                val = self.chi.of_comb(d.bracket(u, b2))
                if val:
                    key = (((self.phigen[b2], 0),), None)
                    terms[key] = terms.get(key, field.zero) + field.lift(val)
            self.d0_image[self.jgen[u]] = FieldExpr(sys, terms)

        for b in self.restricted_pos:
            terms = {}
            for b2 in self.restricted_pos:
                for b3 in self.restricted_pos:
                    c = d.bracket(b2, b3).get(b)
                    if c:
                        word, sgn = self._phi_word(b2, b3)
                        if word is None:
                            continue
                        key = (word[0], None)
                        val = Fraction(-1, 2) * \
                            (-1) ** (d.parity[b] * d.parity[b2]) * sgn * c
                        terms[key] = terms.get(key, field.zero) + \
                            field.lift(val)
            self.d0_image[self.phigen[b]] = FieldExpr(sys, terms)

        for b in self.half:
            terms = {}
            for b2 in self.half:
                val = self.chi.of_comb(d.bracket(b2, b))
                if val and b2 in self.phigen:
                    key = (((self.phigen[b2], 0),), None)
                    terms[key] = terms.get(key, field.zero) + field.lift(val)
            self.d0_image[self.neutral[b]] = FieldExpr(sys, terms)

    # -- d_(0) as an odd derivation on states ------------------------------------

    def d0_mono(self, word, tag):
        key = (word, tag)
        out = self._d0_memo.get(key)
        if out is not None:
            return out
        field = self.field
        if not word:
            out = {}
        else:
            (g, m) = word[0]
            rest = word[1:]
            acc = {}
            img = self.d0_image.get(g)
            if img is not None and img.terms:
                part = apply_field_coeff(img, -m - 1, {(rest, tag): field.one},
                                         self.module)
                acc = dict(part)
            inner = self.d0_mono(rest, tag)
            if inner:
                sign = (-1) ** self.system.gens[g].parity
                part = self.module.gen_mode_state(g, m, inner)
                acc = state_add(acc, state_scale(
                    part, field.lift(sign), field), field)
            out = acc
        self._d0_memo[key] = out
        return out

    def d0_state(self, state):
        field = self.field
        out = {}
        for (w, t), c in state.items():
            out = state_add(out, state_scale(self.d0_mono(w, t), c, field),
                            field)
        return out

    # -- graded pieces and cohomology ---------------------------------------------

    def basis(self, weight2, charge):
        return graded_basis(self.module, weight2, charge=charge)

    def d0_matrix(self, weight2, charge):
        """Rows indexed by the target basis, columns by the source basis."""
        src = self.basis(weight2, charge)
        dst = self.basis(weight2, charge + 1)
        pos = {key: i for i, key in enumerate(dst)}
        field = self.field
        mat = [[field.zero] * len(src) for _ in dst]
        for jcol, key in enumerate(src):
            img = self.d0_state({key: field.one})
            for mono, c in img.items():
                mat[pos[mono]][jcol] = c
        return mat, src, dst

    def cohomology_dims(self, weight2_max, charge_max=None):
        """{(weight2, charge): dim H} for all charges at each weight."""
        field = self.field
        out = {}
        for w2 in range(0, weight2_max + 1):
            charges = sorted({self.module.word_charge(w)
                              for (w, t) in graded_basis(self.module, w2)})
            if charge_max is not None:
                charges = [c for c in charges if c <= charge_max]
            ranks = {}
            dims = {}
            for c in charges:
                mat, src, dst = self.d0_matrix(w2, c)
                dims[c] = len(src)
                ranks[c] = matrix_rank(mat, len(src), field) if src else 0
            for c in charges:
                out[(w2, c)] = dims[c] - ranks.get(c, 0) - ranks.get(c - 1, 0)
        return out

    def h0_basis(self, weight2):
        """Kernel of d_(0) on the charge-zero piece (no incoming arrows)."""
        field = self.field
        mat, src, dst = self.d0_matrix(weight2, 0)
        vecs = nullspace(mat, len(src), field)
        out = []
        for v in vecs:
            st = {key: c for key, c in zip(src, v) if not field.is_zero(c)}
            out.append(st)
        return out


def build_complex(datum, grading, levelform, chifun, field, level):
    return BRSTComplex(datum, grading, levelform, chifun, field, level)


# ---------------------------------------------------------------------------
# Miura projection


def miura_project(brst, state, ctx):
    """Kill all current letters of negative degree; identify the rest with
    the screening ambient of ctx (same g_0 currents and neutral fermions)."""
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
        new_word = tuple(sorted((rename[g], m) for (g, m) in word))
        key = (new_word, ctx.system.vacuum_tag())
        out[key] = out.get(key, field.zero) + c
    return {k: v for k, v in out.items() if not field.is_zero(v)}


# ---------------------------------------------------------------------------
# the odd-field model on n bosons and a fermion


class WBnModel:
    """Currents b_1..b_n with [b_i lambda b_j] = delta_ij lambda, an odd
    fermion with [Psi lambda Psi] = 1, and the odd generating field
    G = :(c d + b_1) ... (c d + b_n) Psi: for a coupling constant c."""

    def __init__(self, n, gamma_mode="symbolic"):
        self.n = n
        if gamma_mode == "symbolic":
            field = RationalFunctionField("g")
            gamma = field.gen
        elif gamma_mode == "split":
            # gamma expressed through s = gamma_+ with gamma_+ gamma_- = -1
            field = RationalFunctionField("s")
            gamma = field.gen - field.one / field.gen
        else:
            field = QQ
            gamma = Fraction(gamma_mode)
        self.field = field
        self.gamma = gamma
        self.gamma_mode = gamma_mode
        sys = GenSystem(field, "wb%d" % n)
        self.bgen = [sys.add_gen("b%d" % (i + 1), parity=0, weight2=2,
                                 current=True) for i in range(n)]
        self.psi = sys.add_gen("Psi", parity=1, weight2=1)
        eye = [[field.one if i == j else field.zero for j in range(n)]
               for i in range(n)]
        sys.set_pairing(eye)
        for i in range(n):
            sys.set_bracket(self.bgen[i], self.bgen[i], {1: comb(const=field.one)})
        sys.set_bracket(self.psi, self.psi, {0: comb(const=field.one)})
        self.system = sys
        self.module = sys.module()
        self.G = self._build_g()
        self.gamma_consts = self._gamma_consts()
        self.brackets = bracket(self.G, self.G, self.module)
        self.W = self._solve_w()

    def _build_g(self):
        out = self.system.gen_field(self.psi)
        for i in range(self.n - 1, -1, -1):
            b = self.system.gen_field(self.bgen[i])
            out = derive(out, self.module).scale(self.gamma) + \
                normal_order(b, out, self.module)
        return out

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
        zero = FieldExpr(self.system, {})
        top = self.brackets.get(2 * self.n, zero)
        expected_top = FieldExpr(self.system, {((), None): self.gamma_consts[self.n]})
        if top != expected_top:
            raise TopCoefficientMismatch(
                "top lambda coefficient is %s, expected %s"
                % (top, expected_top))
        w = {0: self.brackets.get(0, zero)}
        for i in range(1, self.n):
            gi = self.gamma_consts[i]
            if field.is_zero(gi):
                raise ZeroDivisionError(
                    "degenerate coupling: gamma_%d = 0" % i)
            inv = field.one / gi
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
        if not terms:
            terms = {((), None): self.field.one}
        return FieldExpr(self.system, terms)

    def check_c2_congruences(self):
        """The quotient form of the expansion; returns a list of failures."""
        bad = []
        zero = FieldExpr(self.system, {})
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


def build_wbn(n, gamma_mode="symbolic"):
    return WBnModel(n, gamma_mode)


def verify_wbn_screening(n):
    """Q_i G = 0 for the n screening charges, over Q(s) with s = gamma_+.

    Q_i = Res e^{int s a_i} for i < n and Res :e^{int s a_n} Psi: for the
    short root; a_i = b_i - b_{i+1}, a_n = b_n.  Returns failing witnesses.
    """
    model = WBnModel(n, gamma_mode="split")
    field = model.field
    s = field.gen
    mod = model.module
    gstate = field_state(model.G, mod)
    failures = []
    for i in range(1, n + 1):
        coords = [field.zero] * n
        if i < n:
            coords[i - 1] = s
            coords[i] = -s
        else:
            coords[n - 1] = s
        mu = tuple(coords)
        if i < n:
            img = mod.word_coeff_state((), mu, -1, gstate)
        else:
            img = mod.word_coeff_state(((model.psi, 0),), mu, -1, gstate)
        if img:
            failures.append((i, img))
    return model, failures


# ---------------------------------------------------------------------------
# the lattice model on V_xi and the Wakimoto-style homomorphism


class W2nModel:
    """Heisenberg span {a_{n-1},...,a_1, psi, xi} with the level-shifted
    Gram matrix, the lattice algebra V_xi, the generators E = e^{xi} and
    F = :P e^{-xi}:, and the exponential screenings A_i, Q."""

    def __init__(self, n, field=None):
        if n < 2:
            raise ValueError("needs n >= 2")
        self.n = n
        field = field or RationalFunctionField("k")
        self.field = field
        k = field.gen
        self.k = k
        sys = GenSystem(field, "w2_%d lattice" % n)
        self.agen = [sys.add_gen("a%d" % (n - 1 - i), parity=0, weight2=2,
                                 current=True) for i in range(n - 1)]
        self.agen.reverse()  # agen[i-1] is a_i
        self.psig = sys.add_gen("psi", parity=0, weight2=2, current=True)
        self.xig = sys.add_gen("xi", parity=0, weight2=2, current=True)
        m = n + 1  # current count
        kn = k + field.lift(n)
        gram = [[field.zero] * m for _ in range(m)]

        def pos(g):
            return sys.current_pos[g]

        for i in range(1, n):
            gram[pos(self.agen[i - 1])][pos(self.agen[i - 1])] = kn * 2
        for i in range(1, n - 1):
            p1, p2 = pos(self.agen[i - 1]), pos(self.agen[i])
            gram[p1][p2] = gram[p2][p1] = -kn
        if n >= 2:
            p1, p2 = pos(self.agen[0]), pos(self.psig)
            gram[p1][p2] = gram[p2][p1] = -kn
        gram[pos(self.psig)][pos(self.psig)] = field.one
        gram[pos(self.psig)][pos(self.xig)] = field.one
        gram[pos(self.xig)][pos(self.psig)] = field.one
        sys.set_pairing(gram)
        for g in sys.currents:
            for g2 in sys.currents:
                if g <= g2:
                    val = gram[pos(g)][pos(g2)]
                    if not field.is_zero(val):
                        sys.set_bracket(g, g2, {1: comb(const=val)})
        self.system = sys
        self.module = sys.module()
        self.gram = gram
        self.E = self.exp_field({self.xig: field.one})
        self.p_words = self._build_p_words()
        self.P = self._assemble(self.p_words, None)
        self.F = self._assemble(self.p_words,
                                self.exp_field({self.xig: -field.one}))
        self.A = [self.exp_field({self.agen[i]: field.one})
                  for i in range(n - 1)]
        self.Q = self.exp_field({self.psig: field.one})

    def exp_field(self, comps):
        coords = [self.field.zero] * len(self.system.currents)
        for g, c in comps.items():
            coords[self.system.current_pos[g]] = c
        return self.system.exp_field(tuple(coords))

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
                nxt[word] = nxt.get(word, field.zero) + c

            for word, c in words:
                # (k+n-1) d acts by Leibniz on the whole word
                for i in range(len(word)):
                    g, dd = word[i]
                    add(word[:i] + ((g, dd + 1),) + word[i + 1:], c * kn1)
                add(((self.psig, 0),) + word, c)
                for i in range(1, j + 1):
                    add(((self.agen[i - 1], 0),) + word, c)
            words = [(w, c) for w, c in nxt.items() if not field.is_zero(c)]
        return [(w, -c) for (w, c) in words]

    def _assemble(self, words, tail_field):
        """Right-nested normal ordering of formal words, optionally into a
        lattice exponential seed."""
        acc = None
        for word, c in words:
            cur = tail_field
            for (g, dd) in reversed(word):
                letter = self.system.gen_field(g, dd)
                cur = letter if cur is None else \
                    normal_order(letter, cur, self.module)
            term = cur.scale(c)
            acc = term if acc is None else acc + term
        return acc

    def rewritten_f(self):
        """The pulled-inside form with (d + xi(z)) factors acting on :psi e^{-xi}:."""
        field = self.field
        kn1 = self.k + field.lift(self.n - 1)
        xi = self.system.gen_field(self.xig)
        base = normal_order(self.system.gen_field(self.psig),
                            self.exp_field({self.xig: -field.one}),
                            self.module)
        out = base
        for j in range(1, self.n):
            dressing = self.system.gen_field(self.psig)
            for i in range(1, j + 1):
                dressing = dressing + self.system.gen_field(self.agen[i - 1])
            out = (derive(out, self.module) +
                   normal_order(xi, out, self.module)).scale(kn1) + \
                normal_order(dressing, out, self.module)
        return out.scale(field.lift(-1))

    def screening_momenta(self):
        out = [self.coords({self.agen[i]: self.field.one})
               for i in range(self.n - 1)]
        out.append(self.coords({self.psig: self.field.one}))
        return out

    def apply_screening(self, mu, state):
        return self.module.word_coeff_state((), mu, -1, state)


def build_w2n(n, field=None):
    return W2nModel(n, field)


def verify_fs(model):
    """A_i and Q annihilate E and F; returns failing witnesses."""
    failures = []
    for name, fe in (("E", model.E), ("F", model.F)):
        st = field_state(fe, model.module)
        for i, mu in enumerate(model.screening_momenta()):
            img = model.apply_screening(mu, st)
            if img:
                label = "A%d" % (i + 1) if i < model.n - 1 else "Q"
                failures.append((label, name, img))
    return failures


class WakimotoMap:
    """The generator substitution from the degree-zero currents of the
    subregular reduction of sl_n into the lattice model, with exact
    verification of all current brackets."""

    def __init__(self, n, datum, grading, levelform):
        if n < 3:
            raise ValueError("needs n >= 3 (nonabelian degree-zero part)")
        self.n = n
        self.model = W2nModel(n)
        field = self.model.field
        self.field = field
        self.datum = datum
        self.grading = grading
        self.levelform = levelform
        k = field.gen
        m = self.model
        sys = m.system

        def cur(g, c=None):
            return sys.gen_field(g).scale(c) if c is not None \
                else sys.gen_field(g)

        # Cartan: h_1, h_2, h_i
        h_imgs = []
        h_imgs.append(cur(m.xig, k + field.lift(n - 2)) +
                      cur(m.psig).scale(field.lift(2)) + cur(m.agen[0]))
        h_imgs.append(cur(m.xig) - cur(m.psig) + cur(m.agen[1]))
        for i in range(3, n):
            h_imgs.append(cur(m.agen[i - 1]))
        self.h_images = h_imgs
        # e_{a1} and e_{-a1}
        e_img = m.E
        base = normal_order(
            m.system.gen_field(m.psig),
            m.exp_field({m.xig: -field.one}), m.module)
        inner = (derive(base, m.module) +
                 normal_order(m.system.gen_field(m.xig), base, m.module)) \
            .scale(k + field.lift(n - 1)) + \
            normal_order(m.system.gen_field(m.psig) +
                         m.system.gen_field(m.agen[0]), base, m.module)
        f_img = inner.scale(field.lift(-1))
        self.e_image = e_img
        self.f_image = f_img
        self._index_images()

    def _index_images(self):
        d = self.datum
        self.g0 = self.grading.g0_indices()
        self.image_of_basis = {}
        cartan_done = 0
        for b in self.g0:
            if b < d.rank:
                self.image_of_basis[b] = self.h_images[b]
            else:
                root = d.root_at(b)
                if root.simple_coords == tuple([1] + [0] * (d.rank - 1)):
                    self.image_of_basis[b] = self.e_image
                elif root.simple_coords == tuple([-1] + [0] * (d.rank - 1)):
                    self.image_of_basis[b] = self.f_image
                else:
                    raise ValueError("unexpected degree-zero root %s" % root.name)

    def image_of_comb(self, comb_dict):
        out = None
        for b, c in comb_dict.items():
            term = self.image_of_basis[b].scale(self.field.lift(c))
            out = term if out is None else out + term
        return out if out is not None else FieldExpr(self.model.system, {})

    def verify_brackets(self):
        """[pi(u) lambda pi(v)] == pi([u,v]) + tau(u|v) lambda, all pairs."""
        d = self.datum
        field = self.field
        failures = []
        checked = 0
        for u in self.g0:
            for v in self.g0:
                got = bracket(self.image_of_basis[u], self.image_of_basis[v],
                              self.model.module)
                want0 = self.image_of_comb(d.bracket(u, v))
                tau = self.levelform.tau_scalar(field, field.gen, u, v)
                zero = FieldExpr(self.model.system, {})
                ok = got.get(0, zero) == want0
                want1 = FieldExpr(self.model.system,
                                  {((), None): tau} if not field.is_zero(tau)
                                  else {})
                ok = ok and got.get(1, zero) == want1
                ok = ok and all(got[nn].is_zero() for nn in got if nn >= 2)
                checked += 1
                if not ok:
                    failures.append(((d.basis_name(u), d.basis_name(v)), got))
        return checked, failures

    def map_state(self, state, basis_of_gen):
        """Transport a current-only vacuum state through the substitution.

        basis_of_gen maps source generator indices to datum basis indices
        (for a screening ambient: {gen: b for b, gen in
        ctx.current_of_basis.items()}).
        """
        field = self.field
        out = {}
        target_vac = self.model.system.vacuum_tag()
        for (word, tag), c in state.items():
            if tag[0] != "m":
                raise NonZeroCharge("transport is defined on vacuum states")
            img = {((), target_vac): c}
            for (g, m) in reversed(word):
                fe = self.image_of_basis[basis_of_gen[g]]
                img = apply_field_coeff(fe, -m - 1, img, self.model.module)
            out = state_add(out, img, field)
        return out
