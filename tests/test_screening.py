import random
from fractions import Fraction
from itertools import chain

import pytest

from vertexscreen import screening
from vertexscreen.linalg import nullspace
from vertexscreen.presets import build_preset, preset_context
from vertexscreen.screening import (NonCartanZeroPart, choose_screenings,
                                    expected_character,
                                    character_of_generators,
                                    exponential_screenings,
                                    generic_screenings, image_rows,
                                    kernel_basis)
from vertexscreen.scalars import QQ
from vertexscreen.vertexcalc import (CriticalLevel, Module, _fact,
                                     apply_field_coeff, field_state,
                                     graded_basis, state_acc, state_field)

from oracle_helper import label_roots


def test_s_series_on_vacuum():
    """S^a_0 |0> = x_a and S^a_n |0> = 0 for n >= 1."""
    for preset in ("sl2-regular", "sl3-subregular", "osp1_2-regular"):
        ctx = preset_context(preset)
        vac = {((), ctx.system.vacuum_tag()): ctx.field.one}
        for bidx in ctx.grading.base.pi_half:
            xtag = ctx.xtag_of_root[bidx]
            assert ctx.s_alpha_apply(bidx, 0, vac) == \
                {((), xtag): ctx.field.one}
            for n in (1, 2, 3):
                assert ctx.s_alpha_apply(bidx, n, vac) == {}


def test_s_series_current_commutator():
    """[J^u_(m), S^a_n] = sum_b c^a_{b,u} S^b_{m+n} on sampled states."""
    rng = random.Random(31)
    for preset in ("sl3-subregular", "sl2-regular"):
        ctx = preset_context(preset)
        d = ctx.datum
        field = ctx.field
        mod = ctx.system
        for bidx in ctx.grading.base.pi_half:
            cls = next(c for c in ctx.grading.base.classes if bidx in c)
            for trial in range(6):
                w2 = rng.randrange(0, 5)
                keys = [key for key in graded_basis(mod, w2)
                        if all(g < ctx.n_j_gens for g, _ in key[0])]
                if not keys:
                    continue
                v = {keys[rng.randrange(len(keys))]: ctx.field.one}
                u = ctx.g0[rng.randrange(len(ctx.g0))]
                gu = ctx.current_of_basis[u]
                m = rng.randint(-2, 2)
                n = rng.randint(-1, w2 // 2 + 1)
                # lhs - rhs
                diff = mod.gen_mode_state(gu, m,
                                          ctx.s_alpha_apply(bidx, n, v))
                state_acc(diff, ctx.s_alpha_apply(
                    bidx, n, mod.gen_mode_state(gu, m, v)), -field.one, field)
                for b2 in cls:
                    c = d.bracket(b2, u).get(bidx)
                    if c:
                        state_acc(diff, ctx.s_alpha_apply(b2, m + n, v),
                                  field.lift(-c), field)
                assert not any(diff.values()), (preset, bidx, m, n)


def test_s_series_derivative_relation():
    """The first-order relation for dS^a(z), in Fourier modes:
    -(n-1) S_{n-1} = pref * sum (-1)^.. c^g_{b,-a} [z^-n] :J^g(z) S^b(z):."""
    for preset in ("sl2-regular", "sl3-subregular"):
        ctx = preset_context(preset)
        d = ctx.datum
        field = ctx.field
        mod = ctx.system
        for bidx in ctx.grading.base.pi_half:
            cls = next(c for c in ctx.grading.base.classes if bidx in c)
            neg = d.neg_index(bidx)
            pref = -(field.one / ctx.kappa_shift) * \
                field.lift(Fraction(1) / d.form_entry(bidx, neg))
            for w2 in (0, 2, 4):
                for key in graded_basis(mod, w2):
                    if any(g >= ctx.n_j_gens for g, _ in key[0]):
                        continue
                    v = {key: field.one}
                    for n in range(0, w2 // 2 + 2):
                        # lhs - rhs
                        diff = {}
                        state_acc(diff, ctx.s_alpha_apply(bidx, n - 1, v),
                                  field.lift(-(n - 1)), field)
                        for b2 in cls:
                            for gam, c in d.bracket(b2, neg).items():
                                if gam not in ctx.current_of_basis:
                                    continue
                                sgn = (-1) ** (d.parity[b2] * d.parity[gam])
                                coeff = pref * field.lift(sgn * c)
                                gj = ctx.current_of_basis[gam]
                                # [z^{-n}] :J(z) S(z): with S in the z^{-m}
                                # convention: sum_i J_(-i-1) S_{n+i}
                                #           + sum_i S_{n-i-1} J_(i)
                                for i in range(0, w2 // 2 - n + 1):
                                    part = ctx.s_alpha_apply(b2, n + i, v)
                                    part = mod.gen_mode_state(gj, -i - 1, part)
                                    state_acc(diff, part, -coeff, field)
                                for i in range(0, w2 // 2 + 1):
                                    part = mod.gen_mode_state(gj, i, v)
                                    if part:
                                        part = ctx.s_alpha_apply(
                                            b2, n - i - 1, part)
                                        state_acc(diff, part, -coeff, field)
                        assert not any(diff.values()), (preset, bidx, n, key)


def test_generic_matches_exponential_modes():
    """For a Cartan g_0 the intertwiner series equals the lattice
    exponential of momentum -t_a/(k+h), mode by mode, weights <= 3."""
    for preset in ("sl2-regular", "osp1_2-regular"):
        ctx = preset_context(preset)
        mod = ctx.system
        eops = exponential_screenings(ctx)
        mom = {op.class_roots[0]: op.momentum for op in eops}
        for bidx in ctx.grading.base.pi_half:
            mu = mom[bidx]
            for w2 in range(0, 7):
                for key in graded_basis(mod, w2):
                    if any(g >= ctx.n_j_gens for g, _ in key[0]):
                        continue
                    st = {key: ctx.field.one}
                    for n in range(-1, w2 // 2 + 1):
                        a = ctx.s_alpha_apply(bidx, n, st)
                        b = mod.word_coeff_state((), mu, -n, st)
                        a = {(w, "*"): c for (w, t), c in a.items()}
                        b = {(w, "*"): c for (w, t), c in b.items()}
                        assert a == b, (preset, bidx, n, key)


def test_neutral_fermion_pairing():
    """[Phi_b lambda Phi_b'] is the central value (f|[e_b, e_b'])."""
    from vertexscreen.vertexcalc import bracket
    ctx = preset_context("osp1_2-regular")
    b = ctx.grading.delta_half_indices()[0]
    phi = ctx.system.gen_field(ctx.fermion_of_root[b])
    val = ctx.grading.chi.of_comb(ctx.datum.bracket(b, b))
    assert val != 0
    br = bracket(phi, phi)
    assert br == {0: ctx.system.one_field().scale(ctx.field.lift(val))}


def test_induced_module_zero_modes():
    """J^u_(0) x_a = sum over the class of c^a_{b,u} x_b, where c^a_{b,u}
    is the e_a-coefficient of [e_b, u]."""
    ctx = preset_context("sl3-subregular")
    d = ctx.datum
    mod = ctx.system
    cls = ctx.grading.base.classes[0]
    for bidx in cls:
        xst = {((), ctx.xtag_of_root[bidx]): ctx.field.one}
        for u in ctx.g0:
            got = mod.gen_mode_state(ctx.current_of_basis[u], 0, xst)
            want = {}
            for b2 in cls:
                c = d.bracket(b2, u).get(bidx)
                if c:
                    want[((), ctx.xtag_of_root[b2])] = ctx.field.lift(c)
            assert got == want, (d.basis_name(bidx), d.basis_name(u))
        # the whole class is annihilated by positive modes
        for u in ctx.g0:
            assert mod.gen_mode_state(ctx.current_of_basis[u], 1, xst) == {}


def test_osp1_6_kernel_low_weights():
    """Rank three: two pure exponentials and one dressed charge; the
    joint kernel follows the character on even weights 2, 4, 6 and one
    odd weight 7/2 (checked through the first odd generator)."""
    ctx = preset_context("osp1_6-regular")
    ops = exponential_screenings(ctx)
    assert sorted(len(op.word) for op in ops) == [0, 0, 1]
    char = expected_character(ctx.datum, ctx.grading, 7)
    assert char == character_of_generators([(4, 0), (7, 1), (8, 0), (12, 0)],
                                           7)
    dims = []
    for w2 in range(0, 8):
        rep = kernel_basis(ctx, ops, w2, expected=char[w2])
        assert rep.kernel_dim == rep.expected_dim, w2
        dims.append(rep.kernel_dim)
    assert dims == [1, 0, 0, 0, 1, 0, 1, 1]


def test_osp1_4_mixed_screenings_kernel():
    """One pure exponential and one dressed charge act together."""
    ctx = preset_context("osp1_4-regular")
    ops = exponential_screenings(ctx)
    assert sorted(len(op.word) for op in ops) == [0, 1]
    char = expected_character(ctx.datum, ctx.grading, 6)
    # generators of the n = 2 model: even weights 2, 4 and an odd 5/2
    assert char == character_of_generators([(4, 0), (5, 1), (8, 0)], 6)
    for w2 in range(0, 7):
        rep = kernel_basis(ctx, ops, w2, expected=char[w2])
        assert rep.kernel_dim == rep.expected_dim, w2


def test_q_kills_vacuum():
    for preset in ("sl2-regular", "osp1_2-regular", "sl3-subregular",
                   "sl3-subregular-cartan"):
        ctx = preset_context(preset)
        vac = {((), ctx.system.vacuum_tag()): ctx.field.one}
        ops = generic_screenings(ctx)
        if ctx.grading.g0_is_cartan():
            ops = ops + exponential_screenings(ctx)
        for op in ops:
            assert op.apply(vac) == {}, (preset, op.label)


def test_exponential_q_on_current_state():
    """Q applied to J_(-1)|0> lands on a nonzero multiple of |mu>."""
    ctx = preset_context("sl2-regular")
    op = exponential_screenings(ctx)[0]
    gj = ctx.current_of_basis[ctx.g0[0]]
    st = {(((gj, -1),), ctx.system.vacuum_tag()): ctx.field.one}
    img = op.apply(st)
    tag = op.momentum
    assert tag is ctx.system.momentum_tag(tag[1])
    assert set(img) == {((), tag)}
    assert img[((), tag)]


def test_exponential_screenings_shape_osp():
    """n-1 pure exponentials plus one fermion-dressed operator."""
    for preset, n in (("osp1_2-regular", 1), ("osp1_4-regular", 2),
                      ("osp1_6-regular", 3)):
        ctx = preset_context(preset)
        ops = exponential_screenings(ctx)
        words = sorted(len(op.word) for op in ops)
        assert words == [0] * (n - 1) + [1]


def test_exponential_screenings_need_cartan():
    ctx = preset_context("sl3-subregular")
    with pytest.raises(NonCartanZeroPart):
        exponential_screenings(ctx)


def test_critical_level_rejected():
    with pytest.raises(CriticalLevel):
        preset_context("sl2-regular", level=-2)
    with pytest.raises(CriticalLevel):
        preset_context("osp1_2-regular", level=Fraction(-3, 2))


def test_expected_character_examples():
    grading = build_preset("sl2-regular")
    char = expected_character(grading.datum, grading, 12)
    assert [char[w2] for w2 in range(0, 13, 2)] == [1, 0, 1, 1, 2, 2, 4]
    # matches the free algebra on one even weight-2 generator
    assert char == character_of_generators([(4, 0)], 12)
    grading = build_preset("osp1_2-regular")
    char = expected_character(grading.datum, grading, 7)
    assert [char[w2] for w2 in range(0, 8)] == [1, 0, 0, 1, 1, 1, 1, 2]
    assert char == character_of_generators([(3, 1), (4, 0)], 7)
    grading = build_preset("sl3-subregular-cartan")
    char = expected_character(grading.datum, grading, 6)
    assert char == character_of_generators([(2, 0), (3, 0), (3, 0), (4, 0)],
                                           6)


@pytest.mark.parametrize("seed", range(12))
def test_character_counts_the_pbw_basis(seed):
    """character_of_generators(gens, N)[w2] is the number of PBW monomials
    graded_basis lists at w2 on a module with those generators, for every
    w2 <= N; the count shares no code with the recurrence."""
    rng = random.Random(seed)
    gens = [(rng.randint(1, 6), rng.randint(0, 1))
            for _ in range(rng.randint(0, 4))]
    mod = Module(QQ)
    for i, (w2, par) in enumerate(gens):
        mod.add_gen("g%d" % i, parity=par, weight2=w2)
    for n in (0, 10):
        char = character_of_generators(gens, n)
        assert char == {w2: len(graded_basis(mod, w2))
                        for w2 in range(n + 1)}, (gens, n)


def test_character_of_no_generators():
    assert character_of_generators([], 0) == {0: 1}
    assert character_of_generators([], 5) == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0,
                                              5: 0}


def test_kernel_reports_deterministic():
    ctx = preset_context("sl2-regular")
    ops = exponential_screenings(ctx)
    a = kernel_basis(ctx, ops, 8, expected=2).to_json()
    b = kernel_basis(ctx, ops, 8, expected=2).to_json()
    assert a == b
    assert a["kernel_dim"] == a["expected_dim"] == 2
    assert a["ambient_dim"] == 5
    assert "k+2" in a["denominators"]


def test_kernel_specialized_level_matches_symbolic():
    sym = preset_context("sl2-regular")
    ops = exponential_screenings(sym)
    char = expected_character(sym.datum, sym.grading, 8)
    dims_sym = [kernel_basis(sym, ops, w2, expected=char[w2]).kernel_dim
                for w2 in range(0, 9, 2)]
    spec = preset_context("sl2-regular", level=Fraction(5, 3))
    ops2 = exponential_screenings(spec)
    dims_spec = [kernel_basis(spec, ops2, w2, expected=char[w2]).kernel_dim
                 for w2 in range(0, 9, 2)]
    assert dims_sym == dims_spec


def test_kernel_inclusion_bound():
    """Kernel dimension never exceeds the character dimension."""
    ctx = preset_context("sl3-subregular")
    ops = generic_screenings(ctx)
    char = expected_character(ctx.datum, ctx.grading, 4)
    for w2 in (0, 2, 4):
        rep = kernel_basis(ctx, ops, w2, expected=char[w2])
        assert rep.kernel_dim <= rep.expected_dim
        assert rep.kernel_dim == rep.expected_dim


# frozen "denominators crossed" per doubled weight, from 0 up
KERNEL_DENOMINATORS = {
    ("osp1_2-regular", "exponential"): [
        ["2*k+3"], ["2*k+3"], ["2*k+3"], ["2*k+3", "k+1"], ["2*k+3"],
        ["2*k+3", "4*k+3", "4*k+5", "k", "k+1"],
        ["2*k+3", "4*k+5", "k", "k+1"],
        ["2*k+3", "24*k^2+50*k+27", "3*k+4", "4*k+5", "4*k^2+6*k+1", "k",
         "k+1"]],
    ("sl3-subregular", "generic"): [
        ["k+3"], ["k+3"], ["k+3"], ["k+3"], ["k+2", "k+3"]],
}


@pytest.mark.parametrize("preset, kind", sorted(KERNEL_DENOMINATORS))
def test_kernel_denominator_labels_and_roots(preset, kind):
    """The labels are the frozen ones, and the roots label_roots reads off
    them are exactly the zeros of the linear labels, read by sympy."""
    sympy = pytest.importorskip("sympy")
    k = sympy.Symbol("k")
    ctx = preset_context(preset)
    ops = exponential_screenings(ctx) if kind == "exponential" \
        else generic_screenings(ctx)
    for w2, expected in enumerate(KERNEL_DENOMINATORS[(preset, kind)]):
        rep = kernel_basis(ctx, ops, w2)
        assert sorted(rep.denominators) == expected
        polys = [sympy.Poly(sympy.sympify(label.replace("^", "**")), k)
                 for label in rep.denominators]
        assert label_roots(rep.denominators) == {
            Fraction(int(-b), int(a))
            for a, b in (p.all_coeffs() for p in polys if p.degree() == 1)}


def _unit_inversion_denominators(ctx, rows, pivots, kernel):
    """The denominators kernel_basis reported before it passed the pivots
    to field.denominators as they stand: each pivot and stripped row
    factor inverted against the unit entry of a stripped row."""
    field = ctx.field
    unit = field.strip_row({0: field.one})[0]
    return field.denominators(chain(
        (x for row in rows for x in row.values()),
        (field.quo(unit, p) for p in pivots),
        (c for vec in kernel for c in vec),
        (field.one / ctx.kappa_shift,)))


@pytest.mark.parametrize("preset, max_w2", [
    ("osp1_4-regular", 8), ("sl4-subregular", 6),
    ("sl3-subregular-cartan", 6)])
def test_kernel_denominators_match_unit_inversion(preset, max_w2):
    """Over Q(k), the labels of every kernel report, and so the roots they
    name, equal those of the unit inversion, on the rows, pivots and kernel
    of that report."""
    ctx = preset_context(preset)
    _, ops = choose_screenings(ctx)
    seen = []

    def recording(rows, ncols, field, pivot_sink):
        kernel = nullspace(rows, ncols, field, pivot_sink=pivot_sink)
        seen.append((rows, pivot_sink, kernel))
        return kernel

    negative = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(screening, "nullspace", recording)
        for w2 in range(max_w2 + 1):
            rep = kernel_basis(ctx, ops, w2)
            rows, pivots, kernel = seen.pop()
            negative += sum(p[-1] < 0 for p in pivots)
            assert rep.denominators == \
                _unit_inversion_denominators(ctx, rows, pivots, kernel), w2
    assert negative  # some pivot has its sign made positive


@pytest.mark.parametrize("preset, max_w2", [
    ("osp1_4-regular", 6), ("sl3-subregular", 4)])
def test_kernel_rows_are_image_rows(preset, max_w2):
    """kernel_basis hands nullspace the image_rows of its screenings, in
    order, so its pivots and denominators are those of that matrix."""
    ctx = preset_context(preset)
    _, ops = choose_screenings(ctx)
    seen = []

    def recording(rows, ncols, field, pivot_sink):
        seen.append(rows)
        return nullspace(rows, ncols, field, pivot_sink=pivot_sink)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(screening, "nullspace", recording)
        for w2 in range(max_w2 + 1):
            kernel_basis(ctx, ops, w2)
    assert len(seen) == max_w2 + 1
    for w2, rows in enumerate(seen):
        basis = graded_basis(ctx.system, w2)
        assert rows == image_rows([op.apply for op in ops], basis,
                                  ctx.field), w2


@pytest.mark.parametrize("preset, kind, max_w2", [
    ("sl3-subregular", "generic", 6),
    ("osp1_2-regular", "exponential", 7)])
def test_symbolic_basis_specializes_to_basis_over_q(preset, kind, max_w2):
    """The symbolic kernel basis evaluated at k = 7/2 equals the basis
    computed over Q at k = 7/2.  This holds where no reported denominator
    vanishes at 7/2, since elimination then takes the same pivots; that is
    asserted first."""
    level = Fraction(7, 2)
    sym = preset_context(preset)
    spec = preset_context(preset, level=level)
    screenings = exponential_screenings if kind == "exponential" \
        else generic_screenings
    ops_sym, ops_spec = screenings(sym), screenings(spec)
    char = expected_character(sym.datum, sym.grading, max_w2)
    for w2 in range(max_w2 + 1):
        rep = kernel_basis(sym, ops_sym, w2)
        assert level not in label_roots(rep.denominators)
        got = [{key: c.evaluate(level) for key, c in f.terms.items()}
               for f in rep.basis_fields]
        got = [{key: c for key, c in vec.items() if c} for vec in got]
        want = [dict(f.terms)
                for f in kernel_basis(spec, ops_spec, w2).basis_fields]
        assert got == want and len(got) == char[w2], (preset, w2)


def _s_alpha_by_powers(ctx, bidx, n, word, tag):
    """S^a_n on a current monomial as sum_m (-1)^(m+n) sigma / m! T^m P_m,
    P_m = A_(-m-n) x_a, translating each P_m m times: the reference for
    the Horner sum of ScreeningContext.s_alpha_mono."""
    field = ctx.field
    mod = ctx.system
    a_field = state_field({(word, tag): field.one}, ctx.system)
    p_word = mod.word_parity(word)
    sigma = (-1) ** (ctx.datum.parity[bidx] * p_word + p_word)
    xstate = {((), ctx.xtag_of_root[bidx]): field.one}
    out = {}
    m = 0
    while 2 * (m + n) <= mod.word_depth2(word):
        part = apply_field_coeff(a_field, -m - n, xstate)
        for _ in range(m):
            part = mod.translate(part)
        c = Fraction((-1) ** ((m + n) % 2) * sigma, _fact(m))
        state_acc(out, part, field.lift(c), field)
        m += 1
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("preset", ["sl3-subregular", "sl4-subregular"])
@pytest.mark.parametrize("level", ["symbolic", Fraction(7, 2)])
def test_s_alpha_horner_matches_powers(preset, level):
    """The memoized Horner sum equals the sum of powers of T for every
    root and every current monomial to doubled weight 6, on a first call
    and from the memo.  n runs from -1 (the generic-half construction
    asks for n <= 0) to one past the last n with a term, where both sums
    are empty; lower n cost minutes over Q(k) and add no new case."""
    ctx = preset_context(preset, level=level)
    words = [(w, t) for w2 in range(7) for (w, t) in
             graded_basis(ctx.system, w2)
             if all(g < ctx.n_j_gens for g, _ in w)]
    nonzero = 0
    for bidx in sorted(ctx.xtag_of_root):
        for w, t in words:
            top = ctx.system.word_depth2(w) // 2
            for n in range(-1, top + 2):
                want = _s_alpha_by_powers(ctx, bidx, n, w, t)
                assert ctx.s_alpha_mono(bidx, n, w, t) == want, (bidx, n, w)
                assert ctx.s_alpha_mono(bidx, n, w, t) == want
                nonzero += bool(want)
    assert nonzero


def _assert_annihilated(ops, reports):
    """Every screening sends every kernel vector of the reports to zero."""
    for rep in reports:
        for f in rep.basis_fields:
            st = field_state(f)
            for op in ops:
                assert op.apply(st) == {}, (rep.weight2, op.label)


@pytest.mark.parametrize("preset, screenings, level, max_w2", [
    ("osp1_4-regular", exponential_screenings, "symbolic", 8),
    ("osp1_4-regular", exponential_screenings, Fraction(7, 2), 10),
    ("sl4-subregular", generic_screenings, "symbolic", 6),
    ("sl3-subregular", generic_screenings, "symbolic", 6),
    ("sl3-subregular-cartan", generic_screenings, "symbolic", 6)])
def test_kernel_vectors_annihilated_by_screenings(preset, screenings, level,
                                                  max_w2):
    """Re-applying the screenings to the kernel vectors gives zero: an
    oracle for the exact check inside linalg.nullspace, through the
    screening action itself rather than the matrix of images.  The cases
    cover the pure and fermion-dressed exp charges over Q(k) and Q, generic-one
    (sl4-subregular, sl3-subregular) and generic-half
    (sl3-subregular-cartan)."""
    ctx = preset_context(preset, level=level)
    ops = screenings(ctx)
    reports = [kernel_basis(ctx, ops, w2) for w2 in range(max_w2 + 1)]
    assert any(len(f.terms) > 1 for rep in reports for f in rep.basis_fields)
    _assert_annihilated(ops, reports)


def _memo_snapshot(ctx):
    return ({key: dict(val) for key, val in ctx._s_alpha_memo.items()},
            {key: ([dict(st) for st in ladder], tag) for key, (ladder, tag)
             in ctx.system._ladder_memo.items()},
            {key: [dict(st) for st in ladder] for key, ladder
             in ctx.system._creation_memo.items()})


@pytest.mark.parametrize("preset, screenings, max_w2, filled", [
    ("sl4-subregular", generic_screenings, 6, 0),
    ("osp1_4-regular", exponential_screenings, 8, 1)])
def test_screening_memos_left_intact(preset, screenings, max_w2, filled):
    """The S^a_n memo and the e^{int mu} annihilation- and creation-ladder
    memos are only read: re-applying the screenings to the first run's
    kernel vectors, multi-term states, and a second kernel_basis run find
    every stored entry as the first run left it (a creation ladder may
    only have grown at its end), and the second run gives equal reports."""
    ctx = preset_context(preset, level=Fraction(7, 2))
    ops = screenings(ctx)
    reports = [kernel_basis(ctx, ops, w2) for w2 in range(max_w2 + 1)]
    first = [rep.to_json() for rep in reports]
    snaps = _memo_snapshot(ctx)
    assert snaps[filled]
    # e^{int mu} stores both ladders or neither
    assert bool(snaps[2]) == bool(snaps[1])
    _assert_annihilated(ops, reports)
    second = [kernel_basis(ctx, ops, w2).to_json()
              for w2 in range(max_w2 + 1)]
    assert second == first
    s_alpha, ladders, creation = _memo_snapshot(ctx)
    for memo, snap in ((s_alpha, snaps[0]), (ladders, snaps[1])):
        for key, val in snap.items():
            assert memo[key] == val, key
    for key, val in snaps[2].items():
        assert creation[key][:len(val)] == val, key
