"""Screening operators and kernel computation.

The ambient space is the vacuum module of the affine vertex superalgebra
of g_0 at the shifted form tau, tensored with the neutral free
superfermions attached to g_{1/2}: the g_0 and neutral-fermion part of
the BRST complex, whose tables set_free_field_tables builds for both.
Screening charges come in two constructions:

  * the generic intertwiner S^a(z), defined through
    S^a(z) A = +- e^{z L_{-1}} Y(A, -z) x_a on the induced module whose
    highest vectors x_a run over an equivalence class of restricted
    simple roots, and
  * for a Cartan g_0, lattice exponentials e^{int mu}(z) with momentum
    mu = -t_a / (k + h_dual) written in the unrescaled current
    coordinates, so only k + h_dual (never its square root) appears and
    all coefficients stay in Q(k).

A charge is the z^{-1} Fourier coefficient, with a neutral fermion factor
inserted for the classes of degree one half (an "exp" charge carries it
as its word, () otherwise).  kernel_basis intersects the kernels at one
doubled weight, and linalg.nullspace checks each kernel vector exactly.
"""

from itertools import chain

from .errors import InputError
from .linalg import nullspace
from .superdata import DatumError
from .vertexcalc import (
    CriticalLevel, GradingMismatch, Module, comb, apply_field_coeff,
    field_to_json, graded_basis, state_acc, state_field, state_sum, trimmed,
    _fact,
)


class NonCartanZeroPart(InputError, ValueError):
    pass


def set_free_field_tables(sys, grading, level, currents, fermions):
    """Brackets of the currents and neutral fermions of sys.

    currents maps the basis indices of a bracket-closed span of g (g_0 for
    the screening ambient, g_{<=0} for the BRST complex) to their current
    generators, in generator order; fermions maps the root indices of
    degree 1/2 to their neutral fermions.  [J^u_lambda J^v] = J^{[u,v]} +
    lambda tau_k(u|v), whose lambda^1 constants are also the form that
    pairs momenta, and [Phi_a_lambda Phi_b] = chi([e_a, e_b]).
    """
    field = sys.field
    datum, levelform = grading.datum, grading.levelform
    span = list(currents)
    for i, b in enumerate(span):
        for b2 in span[i:]:
            terms = []
            for l, c in datum.bracket(b, b2).items():
                if l in currents:
                    terms.append((currents[l], 0, field.lift(c)))
                elif c:
                    raise ValueError("the current span is not bracket-closed")
            tau = levelform.tau_scalar(field, level, b, b2)
            if terms or tau:  # set_bracket drops the empty combination
                sys.set_bracket(currents[b], currents[b2],
                                {0: comb(sys, terms=terms),
                                 1: comb(sys, const=tau)})
    half = sorted(fermions)
    for i, b in enumerate(half):
        for b2 in half[i:]:
            val = grading.chi.of_comb(datum.bracket(b, b2))
            if val:
                sys.set_bracket(fermions[b], fermions[b2],
                                {0: comb(sys, const=field.lift(val))})


class ScreeningContext:
    """Everything needed to realize screenings over a chosen level.

    The grading carries the restricted base, tau_k and chi.  level: the
    element of field playing the role of k (the field generator for
    symbolic computations, a rational for specializations); see
    presets.level_field.
    """

    def __init__(self, grading, field, level):
        self.datum = grading.datum
        self.grading = grading
        self.field = field
        self.level = level
        shifted = level + field.lift(grading.levelform.h_dual)
        if not shifted:
            raise CriticalLevel("level k = -h_dual is excluded")
        self.kappa_shift = shifted
        self._build_system()
        self._register_class_modules()
        self._s_alpha_memo = {}

    # -- ambient system -------------------------------------------------------

    def _build_system(self):
        d, g = self.datum, self.grading
        sys = self.system = Module(self.field)
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
        set_free_field_tables(sys, g, self.level, self.current_of_basis,
                              self.fermion_of_root)

    def _register_class_modules(self):
        """Highest vectors x_a of the induced modules, one per class member."""
        d, g = self.datum, self.grading
        field = self.field
        sys = self.system
        self.xtag_of_root = {}
        for cls in g.base.classes:
            for bidx in cls:
                apos = bidx - d.rank
                key = ("scr", apos)
                zero_modes = {}
                for b in self.g0:
                    table = {}
                    for b2 in cls:
                        c = d.bracket(b2, b).get(bidx)
                        if c:
                            xtag = sys.induced_tag(("scr", b2 - d.rank))
                            table[xtag] = field.lift(c)
                    if table:
                        zero_modes[self.current_of_basis[b]] = table
                parity = (d.parity[bidx] + 1) % 2
                tag = sys.register_hv(key, parity=parity,
                                      zero_modes=zero_modes)
                self.xtag_of_root[bidx] = tag
        # translation on x_a needs the registered tags, fill in second pass
        for cls in g.base.classes:
            for bidx in cls:
                tag = self.xtag_of_root[bidx]
                sys.hvs[tag].translate_state = self._translate_x(bidx, cls)

    def _translate_x(self, bidx, cls):
        d = self.datum
        field = self.field
        neg = d.neg_index(bidx)
        pair = d.form_entry(bidx, neg)
        if not pair:
            raise DatumError("(e_a|e_-a) vanishes")
        pref = -(field.one / self.kappa_shift) / field.lift(pair)
        state = {}
        for b2 in cls:
            for gam, c in d.bracket(b2, neg).items():
                if gam in self.current_of_basis:
                    sgn = (-1) ** (d.parity[b2] * d.parity[gam])
                    word = ((self.current_of_basis[gam], -1),)
                    state_acc(state, {(word, self.xtag_of_root[b2]):
                                      field.lift(sgn * c)}, pref, field)
        return trimmed(state)

    # -- the generic screening series --------------------------------------------

    def s_alpha_mono(self, bidx, n, word, tag):
        """S^a_n applied to one pure-current vacuum monomial.

        S^a_n A = sum_{m>=0} (-1)^(m+n) sigma / m! T^m A_(-m-n) x_a, summed
        by Horner's rule in T.  Results are stored per (bidx, n, word) and
        only read by callers.
        """
        if tag != self.system.vacuum_tag():
            raise GradingMismatch("screenings act on the vacuum module")
        key = (bidx, n, word)
        out = self._s_alpha_memo.get(key)
        if out is not None:
            return out
        field = self.field
        a_field = state_field({(word, tag): field.one}, self.system)
        p_word = self.system.word_parity(word)
        sigma = (-1) ** (self.datum.parity[bidx] * p_word + p_word)
        xstate = {((), self.xtag_of_root[bidx]): field.one}
        out = {}
        for m in range(self.system.word_depth2(word) // 2 - n, -1, -1):
            if out:
                out = self.system.translate(out)
            part = apply_field_coeff(a_field, -m - n, xstate)
            c = field.lift((-1) ** ((m + n) % 2) * sigma) / _fact(m)
            state_acc(out, part, c, field)
        out = trimmed(out)
        self._s_alpha_memo[key] = out
        return out

    def s_alpha_apply(self, bidx, n, state):
        """S^a_n on a state of the ambient (current and fermion letters)."""
        out, n_j = {}, self.n_j_gens
        for (word, tag), c in state.items():
            wj = tuple(l for l in word if l[0] < n_j)
            wf = tuple(l for l in word if l[0] >= n_j)
            part = self.s_alpha_mono(bidx, n, wj, tag)
            if wf:
                part = {(wm + wf, t2): c2 for (wm, t2), c2 in part.items()}
            state_acc(out, part, c, self.field)
        return trimmed(out)


# ---------------------------------------------------------------------------
# screening operators


class ScreeningOp:
    """A screening charge acting on the ambient vacuum module.

    kinds:
      "generic-one":   sum over the class of chi(e_a) * S^a_1
      "generic-half":  sum over the class of Res :S^a(z) Phi_a(z):
      "exp":           Res :word e^{int mu}(z):, the word () or, dressed
                       with its neutral fermion, ((Phi_a, 0),)
    """

    def __init__(self, ctx, kind, label, class_roots, momentum=None,
                 word=()):
        self.ctx = ctx
        self.kind = kind
        self.label = label
        self.class_roots = class_roots
        self.momentum = momentum  # a momentum_tag of ctx.system, or None
        self.word = word
        # S^a_1 is never computed for a root with chi(e_a) = 0
        chi = ctx.grading.chi.of_index
        self._weights = [(b, ctx.field.lift(chi(b))) for b in class_roots
                         if chi(b)]

    def __repr__(self):
        return "ScreeningOp(%s, %s)" % (self.kind, self.label)

    def apply(self, state):
        ctx = self.ctx
        field = ctx.field
        mod = ctx.system
        if self.kind == "exp":
            return mod.word_coeff_state(self.word, self.momentum, -1, state)
        if self.kind == "generic-one":
            return state_sum(((ctx.s_alpha_apply(b, 1, state), c)
                              for b, c in self._weights), field)
        # generic-half
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
                    state_acc(out, ctx.s_alpha_apply(bidx, n, lowered),
                              field.one, field)
            sgn = -field.one if p_s * p_phi else field.one
            for n in range(1, depth2 // 2 + 2):
                part = ctx.s_alpha_apply(bidx, n, state)
                if part:
                    part = mod.gen_mode_state(phi, -n, part)
                    state_acc(out, part, sgn, field)
        return trimmed(out)


def generic_screenings(ctx):
    """One screening charge per equivalence class of the restricted base."""
    d = ctx.datum
    ops = []
    for cls in ctx.grading.base.classes:
        deg2 = ctx.grading.deg2[cls[0]]
        names = "+".join(d.basis_name(b) for b in cls)
        kind = "generic-one" if deg2 == 2 else "generic-half"
        ops.append(ScreeningOp(ctx, kind, "Q[%s]" % names,
                               class_roots=list(cls)))
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
    for bidx in ctx.grading.base.pi_half:
        root = d.root_at(bidx)
        t_coords = d.pairing_to_cartan(root.coords)
        mu = ctx.system.momentum_tag(-field.lift(c) / ctx.kappa_shift
                                     for c in t_coords)
        deg2 = ctx.grading.deg2[bidx]
        if deg2 == 1:
            word = ((ctx.fermion_of_root[bidx], 0),)
        elif ctx.grading.chi.of_index(bidx):
            word = ()
        else:
            continue
        ops.append(ScreeningOp(ctx, "exp", "Q[%s]" % d.basis_name(bidx),
                               class_roots=[bidx], momentum=mu, word=word))
    return ops


def choose_screenings(ctx, kind="auto"):
    """(kind, screenings) of a construction; "auto" takes exponential
    screenings when g_0 = h and generic ones otherwise."""
    if kind == "auto":
        kind = "exponential" if ctx.grading.g0_is_cartan() else "generic"
    return kind, (exponential_screenings(ctx) if kind == "exponential"
                  else generic_screenings(ctx))


# ---------------------------------------------------------------------------
# kernels and characters


class KernelReport:
    def __init__(self, weight2, ambient_dim, kernel_dim, expected_dim,
                 basis_fields, denominators):
        self.weight2 = weight2
        self.ambient_dim = ambient_dim
        self.kernel_dim = kernel_dim
        self.expected_dim = expected_dim
        self.basis_fields = basis_fields
        self.denominators = denominators

    def to_json(self):
        return {
            "weight2": self.weight2,
            "ambient_dim": self.ambient_dim,
            "kernel_dim": self.kernel_dim,
            "expected_dim": self.expected_dim,
            "basis": [field_to_json(f) for f in self.basis_fields],
            "denominators": sorted(self.denominators),
        }


def image_rows(maps, basis, field):
    """Rows {basis position: coefficient} of maps (state -> state) on basis:
    one per monomial an image reaches, map by map, in _state_key order."""
    rows = []
    for f in maps:
        by_key = {}
        for j, key in enumerate(basis):
            for m, c in f({key: field.one}).items():
                by_key.setdefault(m, {})[j] = c
        rows.extend(by_key[m] for m in sorted(by_key, key=_state_key))
    return rows


def kernel_basis(ctx, screenings, weight2, expected=None):
    """Exact nullspace of the screenings' image_rows at one doubled weight."""
    field = ctx.field
    basis = graded_basis(ctx.system, weight2)
    rows = image_rows([op.apply for op in screenings], basis, field)
    pivots = []
    kernel = nullspace(rows, len(basis), field, pivot_sink=pivots)
    basis_fields = [state_field({key: c for c, key in zip(vec, basis) if c},
                                ctx.system) for vec in kernel]
    # divisions by pivots happen during back substitution; the levels
    # where a pivot or a stripped row factor vanishes count as
    # denominators crossed
    denominators = field.denominators(chain(
        (x for row in rows for x in row.values()),
        (c for vec in kernel for c in vec),
        (field.one / ctx.kappa_shift,)), pivots)
    return KernelReport(weight2, len(basis), len(kernel),
                        expected if expected is not None else -1,
                        basis_fields, denominators)


def _state_key(key):
    word, tag = key
    return (str(tag), word)


def expected_character(datum, grading, max_weight2):
    """Graded dimensions of the free differential superpolynomial algebra
    on the centralizer of f, weighted by conformal weight j_i + 1.

    This is a pure combinatorial oracle: it never touches the bracket
    engine.  Returns {doubled weight: dimension}.
    """
    # conformal doubled weight 2 - j2 of each generator, with its parity
    gens = [(2 - j2, par) for _, j2, par in grading.centralizer_generators()]
    return character_of_generators(gens, max_weight2)


def character_of_generators(gens, max_weight2):
    """The free-algebra character from explicit (doubled weight, parity):
    each mode multiplies the series by 1/(1 - q^mode), totals upward, for
    an even generator and by 1 + q^mode, totals downward, for an odd one."""
    series = [int(w2 == 0) for w2 in range(max_weight2 + 1)]
    for w2, par in gens:
        for mode in range(w2, max_weight2 + 1, 2):
            totals = range(mode, max_weight2 + 1)
            for total in totals if par == 0 else reversed(totals):
                series[total] += series[total - mode]
    return dict(enumerate(series))
