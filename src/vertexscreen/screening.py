"""Screening operators and kernel computation.

The ambient space is the vacuum module of the affine vertex superalgebra
of g_0 at the shifted form tau, tensored with the neutral free
superfermions attached to g_{1/2}.  Screening charges come in two
constructions:

  * the generic intertwiner S^a(z), defined through
    S^a(z) A = +- e^{z L_{-1}} Y(A, -z) x_a on the induced module whose
    highest vectors x_a run over an equivalence class of restricted
    simple roots, and
  * for a Cartan g_0, lattice exponentials e^{int mu}(z) with momentum
    mu = -t_a / (k + h_dual) written in the unrescaled current
    coordinates, so only k + h_dual (never its square root) appears and
    all coefficients stay in Q(k).

A charge is the z^{-1} Fourier coefficient, with a neutral fermion factor
inserted for the classes of degree one half.  Kernels are computed per
conformal weight (doubled integers; highest vectors sit at depth 0) by
exact elimination, and every kernel vector is re-checked by applying the
screenings again.
"""

from fractions import Fraction
from itertools import chain

from .linalg import decompose, nullspace
from .scalars import QQ
from .superdata import DatumError
from .vertexcalc import (
    CriticalLevel, GenSystem, GradingMismatch, comb, apply_field_coeff,
    graded_basis, state_add, state_field, state_scale, sugawara_field,
    _fact,
)


class NonCartanZeroPart(ValueError):
    pass


class DegenerateForm(ZeroDivisionError):
    pass


class ScreeningContext:
    """Everything needed to realize screenings over a chosen level.

    level: the coefficient-field element playing the role of k (the field
    generator for symbolic computations, a Fraction for specializations).
    """

    def __init__(self, datum, grading, base, levelform, chifun, field, level):
        self.datum = datum
        self.grading = grading
        self.base = base
        self.levelform = levelform
        self.chi = chifun
        self.field = field
        self.level = field.lift(level) if isinstance(level, (int, Fraction)) \
            else level
        self.h_dual = levelform.h_dual
        shifted = self.level + field.lift(self.h_dual)
        if field.is_zero(shifted):
            raise CriticalLevel("level k = -h_dual is excluded")
        self.kappa_shift = shifted
        self._build_system()
        self._register_class_modules()
        self._sugawara = None

    # -- ambient system -------------------------------------------------------

    def _build_system(self):
        d, g = self.datum, self.grading
        field = self.field
        sysname = "%s ambient" % d.label
        sys = GenSystem(field, sysname)
        self.g0 = g.g0_indices()
        self.current_of_basis = {}
        for b in self.g0:
            idx = sys.add_gen("J[%s]" % d.basis_name(b), parity=d.parity[b],
                              weight2=2, current=True)
            self.current_of_basis[b] = idx
        self.n_j_gens = len(self.g0)
        self.fermion_of_root = {}
        for b in g.delta_half_indices():
            idx = sys.add_gen("Phi[%s]" % d.basis_name(b),
                              parity=d.parity[b], weight2=1)
            self.fermion_of_root[b] = idx
        # pairing on the current span: tau restricted to g_0
        gram = []
        for b in self.g0:
            row = []
            for b2 in self.g0:
                row.append(self.levelform.tau_scalar(field, self.level, b, b2))
            gram.append(row)
        sys.set_pairing(gram)
        # bracket table
        for i, b in enumerate(self.g0):
            for b2 in self.g0[i:]:
                terms = []
                for l, c in d.bracket(b, b2).items():
                    terms.append((self.current_of_basis[l], 0, field.lift(c)))
                tau = gram[i][self.g0.index(b2)]
                entries = {}
                if terms:
                    entries[0] = comb(terms=terms)
                if not field.is_zero(tau):
                    entries[1] = comb(const=tau)
                if entries:
                    sys.set_bracket(self.current_of_basis[b],
                                    self.current_of_basis[b2], entries)
        half = sorted(self.fermion_of_root)
        for i, b in enumerate(half):
            for b2 in half[i:]:
                val = self.chi.of_comb(d.bracket(b, b2))
                if val:
                    sys.set_bracket(self.fermion_of_root[b],
                                    self.fermion_of_root[b2],
                                    {0: comb(const=field.lift(val))})
        self.system = sys
        self.module = sys.module()

    def _register_class_modules(self):
        """Highest vectors x_a of the induced modules, one per class member."""
        d, g = self.datum, self.grading
        field = self.field
        self.xtag_of_root = {}
        for cls in self.base.classes:
            for bidx in cls:
                apos = bidx - d.rank
                key = ("scr", apos)
                zero_modes = {}
                for b in self.g0:
                    table = {}
                    for b2 in cls:
                        c = d.bracket(b2, b).get(bidx)
                        if c:
                            table[("x", ("scr", b2 - d.rank))] = field.lift(c)
                    if table:
                        zero_modes[self.current_of_basis[b]] = table
                parity = (d.parity[bidx] + 1) % 2
                tag = self.module.register_hv(key, parity=parity,
                                              zero_modes=zero_modes)
                self.xtag_of_root[bidx] = tag
        # translation on x_a needs the registered tags, fill in second pass
        for cls in self.base.classes:
            for bidx in cls:
                tag = self.xtag_of_root[bidx]
                self.module.hvs[tag].translate_state = \
                    self._translate_x(bidx, cls)

    def _translate_x(self, bidx, cls):
        d = self.datum
        field = self.field
        neg = d.neg_index(bidx)
        pair = d.form_entry(bidx, neg)
        if not pair:
            raise DatumError("(e_a|e_-a) vanishes")
        pref = -(field.one / self.kappa_shift) * field.lift(Fraction(1, 1) / pair)
        state = {}
        for b2 in cls:
            for gam, c in d.bracket(b2, neg).items():
                if gam not in self.current_of_basis:
                    continue
                sgn = (-1) ** (d.parity[b2] * d.parity[gam])
                coeff = pref * field.lift(sgn * c)
                word = ((self.current_of_basis[gam], -1),)
                key = (word, self.xtag_of_root[b2])
                cur = state.get(key)
                state[key] = coeff if cur is None else cur + coeff
        return {k: v for k, v in state.items() if not field.is_zero(v)}

    # -- Sugawara ---------------------------------------------------------------

    def sugawara(self):
        """The Virasoro field on the g_0 currents, cached."""
        if self._sugawara is None:
            d = self.datum
            field = self.field
            n = len(self.g0)
            gram_cols = [[d.form_entry(b, b2) for b in self.g0]
                         for b2 in self.g0]
            # column i of the inverse Gram matrix: the dual of e_i
            units = [[QQ.one if i == j else QQ.zero for j in range(n)]
                     for i in range(n)]
            duals = decompose(gram_cols, units, QQ)
            if duals is None:
                raise DegenerateForm("invariant form degenerates on g_0")
            pairs = []
            for b, coeffs in zip(self.g0, duals):
                dual = None
                for b2, c in zip(self.g0, coeffs):
                    if c == 0:
                        continue
                    t = self.system.gen_field(self.current_of_basis[b2]) \
                        .scale_fraction(c)
                    dual = t if dual is None else dual + t
                pairs.append((dual, self.system.gen_field(
                    self.current_of_basis[b])))
            denom = self.kappa_shift * field.lift(2)
            self._sugawara = sugawara_field(self.system, pairs, denom)
        return self._sugawara

    # -- the generic screening series --------------------------------------------

    def split_word(self, word):
        wj = tuple(l for l in word if l[0] < self.n_j_gens)
        wf = tuple(l for l in word if l[0] >= self.n_j_gens)
        return wj, wf

    def s_alpha_mono(self, bidx, n, word, tag):
        """S^a_n applied to one pure-current vacuum monomial."""
        d = self.datum
        field = self.field
        if tag != self.system.vacuum_tag():
            raise GradingMismatch("screenings act on the vacuum module")
        a_field = state_field({(word, tag): field.one}, self.system)
        p_a = d.parity[bidx]
        p_word = self.module.word_parity(word)
        sigma = (-1) ** (p_a * p_word + p_word)
        xtag = self.xtag_of_root[bidx]
        xstate = {((), xtag): field.one}
        w2 = self.module.word_depth2(word)
        out = {}
        m = 0
        while 2 * (m + n) <= w2:
            j = m + n - 1
            part = apply_field_coeff(a_field, -j - 1, xstate, self.module)
            if part:
                c = Fraction((-1) ** ((m + n) % 2) * sigma, _fact(m))
                part = state_scale(part, field.lift(c), field)
                for _ in range(m):
                    part = self.module.translate(part)
                out = state_add(out, part, field)
            m += 1
        return out

    def s_alpha_apply(self, bidx, n, state):
        """S^a_n on a state of the ambient (current and fermion letters)."""
        field = self.field
        out = {}
        for (word, tag), c in state.items():
            wj, wf = self.split_word(word)
            part = self.s_alpha_mono(bidx, n, wj, tag)
            for (wm, t2), c2 in part.items():
                key = (wm + wf, t2)
                cur = out.get(key)
                val = c * c2
                out[key] = val if cur is None else cur + val
        return {k: v for k, v in out.items() if not field.is_zero(v)}


# ---------------------------------------------------------------------------
# screening operators


class ScreeningOp:
    """A screening charge acting on the ambient vacuum module.

    kinds:
      "generic-one":   sum over the class of chi(e_a) * S^a_1
      "generic-half":  sum over the class of Res :S^a(z) Phi_a(z):
      "exp":           Res e^{int mu}(z)
      "exp-fermion":   Res :e^{int mu}(z) Phi_a(z):
    """

    def __init__(self, ctx, kind, label, class_roots=None, momentum=None,
                 fermion=None):
        self.ctx = ctx
        self.kind = kind
        self.label = label
        self.class_roots = class_roots or []
        self.momentum = momentum
        self.fermion = fermion

    def __repr__(self):
        return "ScreeningOp(%s, %s)" % (self.kind, self.label)

    def apply(self, state):
        ctx = self.ctx
        field = ctx.field
        mod = ctx.module
        if self.kind == "exp":
            return mod.word_coeff_state((), self.momentum, -1, state)
        if self.kind == "exp-fermion":
            word = ((self.fermion, 0),)
            return mod.word_coeff_state(word, self.momentum, -1, state)
        if self.kind == "generic-one":
            out = {}
            for bidx in self.class_roots:
                cval = ctx.chi.of_index(bidx)
                if not cval:
                    continue
                part = ctx.s_alpha_apply(bidx, 1, state)
                out = state_add(out, state_scale(part, field.lift(cval), field),
                                field)
            return out
        if self.kind == "generic-half":
            out = {}
            depth2 = mod.state_depth2(state) if state else 0
            for bidx in self.class_roots:
                phi = ctx.fermion_of_root[bidx]
                p_s = (ctx.datum.parity[bidx] + 1) % 2
                p_phi = ctx.datum.parity[bidx]
                # Res :S(z)Phi(z): = sum_{n<=0} S_n Phi_(-n) + sgn sum_{n>=1} Phi_(-n) S_n
                for n in range(0, -(depth2 // 2) - 2, -1):
                    lowered = mod.gen_mode_state(phi, -n, state)
                    if lowered:
                        out = state_add(out, ctx.s_alpha_apply(bidx, n, lowered),
                                        field)
                sgn = (-1) ** (p_s * p_phi)
                for n in range(1, depth2 // 2 + 2):
                    part = ctx.s_alpha_apply(bidx, n, state)
                    if part:
                        part = mod.gen_mode_state(phi, -n, part)
                        if sgn < 0:
                            part = state_scale(part, field.lift(-1), field)
                        out = state_add(out, part, field)
            return out
        raise ValueError("unknown screening kind %r" % self.kind)


def generic_screenings(ctx):
    """One screening charge per equivalence class of the restricted base."""
    d = ctx.datum
    ops = []
    for cls in ctx.base.classes:
        deg2 = ctx.grading.deg2[cls[0]]
        names = "+".join(d.basis_name(b) for b in cls)
        if deg2 == 2:
            ops.append(ScreeningOp(ctx, "generic-one", "Q[%s]" % names,
                                   class_roots=list(cls)))
        elif deg2 == 1:
            ops.append(ScreeningOp(ctx, "generic-half", "Q[%s]" % names,
                                   class_roots=list(cls)))
        else:
            raise GradingMismatch("restricted base member of degree %s" % deg2)
    return ops


def exponential_screenings(ctx):
    """Free-field screenings for a Cartan g_0: momenta -t_a/(k + h_dual).

    Degree-one simple roots contribute pure exponentials when chi(e_a) is
    nonzero; degree-half roots are dressed with their neutral fermion.
    Everything is expressed in the unrescaled current coordinates, so the
    coefficients stay inside the base field.
    """
    d = ctx.datum
    field = ctx.field
    if not ctx.grading.g0_is_cartan():
        raise NonCartanZeroPart("exponential screenings need g_0 = h")
    ops = []
    for bidx in ctx.base.pi_half:
        root = d.root_at(bidx)
        t_coords = d.pairing_to_cartan(root.coords)
        mu = tuple(-field.lift(c) / ctx.kappa_shift for c in t_coords)
        deg2 = ctx.grading.deg2[bidx]
        if deg2 == 1:
            ops.append(ScreeningOp(ctx, "exp-fermion",
                                   "Q[%s]" % d.basis_name(bidx),
                                   class_roots=[bidx], momentum=mu,
                                   fermion=ctx.fermion_of_root[bidx]))
        else:
            if ctx.chi.of_index(bidx):
                ops.append(ScreeningOp(ctx, "exp",
                                       "Q[%s]" % d.basis_name(bidx),
                                       class_roots=[bidx], momentum=mu))
    return ops


# ---------------------------------------------------------------------------
# kernels and characters


class KernelReport:
    def __init__(self, weight2, ambient_dim, kernel_dim, expected_dim,
                 basis_fields, denominators, denominator_roots=()):
        self.weight2 = weight2
        self.ambient_dim = ambient_dim
        self.kernel_dim = kernel_dim
        self.expected_dim = expected_dim
        self.basis_fields = basis_fields
        self.denominators = denominators
        self.denominator_roots = set(denominator_roots)

    def to_json(self):
        from .serialize import field_to_json
        return {
            "weight2": self.weight2,
            "ambient_dim": self.ambient_dim,
            "kernel_dim": self.kernel_dim,
            "expected_dim": self.expected_dim,
            "basis": [field_to_json(f) for f in self.basis_fields],
            "denominators": sorted(self.denominators),
        }


def kernel_basis(ctx, screenings, weight2, expected=None, recheck=True):
    """Exact intersection of screening kernels at one doubled weight."""
    field = ctx.field
    mod = ctx.module
    basis = graded_basis(mod, weight2)
    ncols = len(basis)
    rows = []
    for op in screenings:
        images = []
        keys = set()
        for (w, t) in basis:
            img = op.apply({(w, t): field.one})
            images.append(img)
            keys.update(img)
        keys = sorted(keys, key=_state_key)
        for key in keys:
            rows.append([img.get(key, field.zero) for img in images])
    pivots = []
    kernel = nullspace(rows, ncols, field, pivot_sink=pivots)
    basis_fields = []
    for vec in kernel:
        st = {}
        for c, (w, t) in zip(vec, basis):
            if not field.is_zero(c):
                st[(w, t)] = c
        if recheck:
            for op in screenings:
                if op.apply(st):
                    raise AssertionError(
                        "kernel vector fails re-application of %s" % op.label)
        basis_fields.append(state_field(st, ctx.system))
    # divisions by pivots happen during back substitution; the levels
    # where a pivot vanishes count as denominators crossed
    denominators, roots = field.denominators(chain(
        (x for row in rows for x in row),
        (field.one / p for p in pivots if not field.is_zero(p)),
        (c for vec in kernel for c in vec),
        (field.one / ctx.kappa_shift,)))
    return KernelReport(weight2, ncols, len(kernel),
                        expected if expected is not None else -1,
                        basis_fields, denominators, roots)


def _state_key(key):
    word, tag = key
    return (str(tag), word)


def expected_character(datum, grading, max_weight2):
    """Graded dimensions of the free differential superpolynomial algebra
    on the centralizer of f, weighted by conformal weight j_i + 1.

    This is a pure combinatorial oracle: it never touches the bracket
    engine.  Returns {doubled weight: dimension}.
    """
    gens = []
    for comb_, j2, par in grading.centralizer_generators():
        gens.append((2 - j2, par))  # conformal doubled weight of the generator
    series = {0: 1}
    for (w2, par) in gens:
        factor = {0: 1}
        if par == 0:
            # even generator: arbitrary multiplicities of modes w2, w2+2, ...
            for mode in range(w2, max_weight2 + 1, 2):
                new = dict(factor)
                for start, c in factor.items():
                    total = start + mode
                    mult = 1
                    while total <= max_weight2:
                        new[total] = new.get(total, 0) + c
                        total += mode
                        mult += 1
                factor = new
        else:
            for mode in range(w2, max_weight2 + 1, 2):
                new = dict(factor)
                for start, c in factor.items():
                    if start + mode <= max_weight2:
                        new[start + mode] = new.get(start + mode, 0) + c
                factor = new
        merged = {}
        for a, ca in series.items():
            for b, cb in factor.items():
                if a + b <= max_weight2:
                    merged[a + b] = merged.get(a + b, 0) + ca * cb
        series = merged
    return {w2: series.get(w2, 0) for w2 in range(0, max_weight2 + 1)}


def character_of_generators(gens, max_weight2):
    """Same free-algebra character from explicit (doubled weight, parity)."""

    class _G:
        def __init__(self, entries):
            self.entries = entries

        def centralizer_generators(self):
            return [({}, 2 - w2, par) for (w2, par) in self.entries]

    return expected_character(None, _G(gens), max_weight2)
