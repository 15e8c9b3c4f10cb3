import random
from fractions import Fraction
from math import factorial, prod

import pytest

from vertexscreen.presets import build_preset, preset_context, preset_names
from vertexscreen.scalars import QQ, RationalFunctionField
from vertexscreen.screening import (character_of_generators,
                                    choose_screenings,
                                    exponential_screenings, kernel_basis)
from vertexscreen.vertexcalc import (FieldExpr, Module,
                                     NonVacuumModule, UndefinedAction, comb, apply_field_coeff,
                                     bracket, derive, derive_n, field_state,
                                     graded_basis, normal_order, state_field,
                                     state_acc, state_sum, sugawara_field,
                                     trimmed)
from vertexscreen.walgebras import W2nModel, WBnFields, build_complex
from vertexscreen.verify import (WICK_PRESETS, check_commutator, check_jacobi,
                                 check_skew, check_wick,
                                 random_homogeneous_field)


def _heis_gram(F):
    """The Gram heis_fermion writes on its one current: (J|J) = 2(k+2)."""
    return [[(F.gen + 2) * 2]]


@pytest.fixture
def heis_fermion():
    """One boson J with [J_l J] = 2(k+2) l, one odd fermion Psi."""
    F = RationalFunctionField("k")
    sys = Module(F)
    j = sys.add_gen("J", parity=0, weight2=2, current=True)
    psi = sys.add_gen("Psi", parity=1, weight2=1)
    sys.set_bracket(j, j, {1: comb(const=_heis_gram(F)[0][0])})
    sys.set_bracket(psi, psi, {0: comb(const=F.one)})
    return sys


def _eye(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def _tau_gram(ctx):
    """tau_k on the currents of a screening ambient, in generator order,
    built from the level form and not read off the module."""
    span = list(ctx.current_of_basis)
    return [[ctx.grading.levelform.tau_scalar(ctx.field, ctx.level, b, b2)
             for b2 in span] for b in span]


def _pair(gram, a, b):
    """(a|b) = sum_ij a_i gram_ij b_j, so a test pairs momenta by the Gram
    it wrote itself, never by the engine's own."""
    return sum(x * y * gram[i][j] for i, x in enumerate(a)
               for j, y in enumerate(b))


def test_bracket_with_identity(heis_fermion):
    sys = heis_fermion
    J = sys.gen_field("J")
    one = sys.one_field()
    assert bracket(one, J) == {}
    assert bracket(J, one) == {}


def test_bracket_central_term(heis_fermion):
    sys = heis_fermion
    P = sys.gen_field("Psi")
    br = bracket(P, P)
    assert list(br) == [0]
    assert br[0] == sys.one_field()


def test_normal_order_with_identity(heis_fermion):
    sys = heis_fermion
    J = sys.gen_field("J")
    assert normal_order(sys.one_field(), J) == J
    assert normal_order(J, sys.one_field()) == J


def test_derive_is_a_derivation(heis_fermion):
    sys = heis_fermion
    J = sys.gen_field("J")
    P = sys.gen_field("Psi")
    prod = normal_order(J, P)
    lhs = derive(prod)
    rhs = normal_order(derive(J), P) + normal_order(J, derive(P))
    assert lhs == rhs


def test_odd_square_vanishes(heis_fermion):
    sys = heis_fermion
    P = sys.gen_field("Psi")
    assert normal_order(P, P).is_zero()
    assert not normal_order(derive(P), P).is_zero()


def test_translation_mode_identity(heis_fermion):
    """(dA)_(n) = -n A_(n-1) on random states."""
    sys = heis_fermion
    rng = random.Random(5)
    mod = sys
    for w2 in (2, 3, 4):
        A = random_homogeneous_field(mod, rng, w2)
        dA = derive(A)
        for key in graded_basis(mod, 3):
            v = {key: sys.field.one}
            for n in (-2, -1, 0, 1, 2):
                lhs = apply_field_coeff(dA, -n - 1, v)
                rhs = apply_field_coeff(A, -(n - 1) - 1, v)
                rhs = {kk: cc * sys.field.lift(-n) for kk, cc in rhs.items()
                       if n != 0}
                assert lhs == rhs


def test_vacuum_annihilation(heis_fermion):
    sys = heis_fermion
    mod = sys
    vac = {((), mod.vacuum_tag()): sys.field.one}
    J = sys.gen_field("J")
    for n in (0, 1, 2):
        assert apply_field_coeff(J, -n - 1, vac) == {}
    # J_(-1)|0> is the generator state
    assert apply_field_coeff(J, 0, vac) == field_state(J)


def test_graded_basis_counts(heis_fermion):
    sys = heis_fermion
    mod = sys
    # weight 0: the vacuum only
    assert len(graded_basis(mod, 0)) == 1
    # one boson alone at weight 2: J_(-2), J_(-1)^2 (fermion adds more)
    words = [w for (w, t) in graded_basis(mod, 4)
             if all(g == 0 for g, _ in w)]
    assert len(words) == 2


def test_graded_basis_odd_multiplicity():
    F = QQ
    sys = Module(F)
    psi = sys.add_gen("Psi", parity=1, weight2=1)
    sys.set_bracket(psi, psi, {0: comb(const=F.one)})
    mod = sys
    # doubled weight 3 = conformal weight 3/2: only Psi_(-2)|0>
    basis = graded_basis(mod, 3)
    assert basis == [(((0, -2),), sys.vacuum_tag())]
    # no repeated odd modes: weight 1 twice is forbidden
    assert all(len(set(w)) == len(w) for (w, t) in graded_basis(mod, 6))


@pytest.mark.parametrize("preset", preset_names())
def test_graded_basis_matches_character(preset):
    """On the BRST complex and the screening ambient of every preset, the
    PBW basis has the free character of its generators, comes out sorted,
    and spells each word as a non-decreasing run of letters with no odd
    letter repeated."""
    ctx = preset_context(preset, Fraction(7, 2))
    brst = build_complex(ctx.grading, ctx.field, ctx.level)
    for mod in (brst.system, ctx.system):
        char = character_of_generators(
            [(g.weight2, g.parity) for g in mod.gens], 8)
        for w2 in range(0, 9):
            words = [w for (w, _) in graded_basis(mod, w2)]
            assert len(words) == char[w2], (preset, w2)
            assert words == sorted(words)
            for w in words:
                assert list(w) == sorted(w), w
                odd = [l for l in w if mod.gens[l[0]].parity]
                assert len(set(odd)) == len(odd), w


def test_state_field_round_trip(heis_fermion):
    sys = heis_fermion
    mod = sys
    for w2 in range(0, 7):
        for key in graded_basis(mod, w2):
            st = {key: sys.field.one}
            assert field_state(state_field(st, sys)) == st


def test_state_field_rejects_induced_modules(heis_fermion):
    sys = heis_fermion
    mod = sys
    tag = mod.register_hv("x", parity=0)
    with pytest.raises(NonVacuumModule):
        state_field({((), tag): sys.field.one}, sys)


def test_exp_vertex_basics(heis_fermion):
    sys = heis_fermion
    F = sys.field
    mod = sys
    mu = (F.one / (F.gen + 2),)
    E = sys.exp_field(mu)
    assert E.parity() == 0
    # zeroth-order action on the vacuum gives the shifted highest vector
    img = apply_field_coeff(E, 0, {((), mod.vacuum_tag()): F.one})
    assert img == {((), sys.momentum_tag(mu)): F.one}
    # [e^{mu} e^{mu'}] = 0 when the pairing of the momenta vanishes: use
    # a second system with an isotropic direction, which brackets with
    # nothing
    sys2 = Module(F)
    xi = sys2.add_gen("xi", parity=0, weight2=2, current=True)
    E1 = sys2.exp_field((F.one,))
    E2 = sys2.exp_field((F.lift(2),))
    assert bracket(E1, E2) == {}


def test_exp_weight_under_sugawara(heis_fermion):
    sys = heis_fermion
    F = sys.field
    k = F.gen
    J = sys.gen_field("J")
    L = sugawara_field(sys, [(J.scale_fraction(Fraction(1, 2)), J)],
                       (k + 2) * 2)
    mu = (-F.one / (k + 2),)
    tag = sys.momentum_tag(mu)
    hvec = {((), tag): F.one}
    got = apply_field_coeff(L, -2, hvec)   # L_(1) = L_0 action
    want = _pair(_heis_gram(F), mu, mu) / 2
    assert got == {((), tag): want}


def test_exp_is_primary_for_sugawara(heis_fermion):
    """[L_l e^mu] = (d + Delta l) e^mu with Delta = B(mu,mu)/2."""
    sys = heis_fermion
    F = sys.field
    k = F.gen
    J = sys.gen_field("J")
    L = sugawara_field(sys, [(J.scale_fraction(Fraction(1, 2)), J)],
                       (k + 2) * 2)
    mu = (-F.one / (k + 2),)
    E = sys.exp_field(mu)
    br = bracket(L, E)
    delta = _pair(_heis_gram(F), mu, mu) / 2
    assert br[0] == derive(E)
    assert br[1] == E.scale(delta)
    assert all(n <= 1 for n in br)


def test_sugawara_virasoro(heis_fermion):
    sys = heis_fermion
    F = sys.field
    k = F.gen
    J = sys.gen_field("J")
    L = sugawara_field(sys, [(J.scale_fraction(Fraction(1, 2)), J)],
                       (k + 2) * 2)
    br = bracket(L, L)
    assert br[0] == derive(L)
    assert br[1] == L.scale_fraction(2)
    assert 2 not in br
    # central charge of one boson: l^3 coefficient is c/2 with c = 1
    assert br[3] == sys.one_field().scale_fraction(Fraction(1, 2))
    brj = bracket(L, J)
    assert brj == {0: derive(J), 1: J}


def test_bracket_lambda_degree_bound(heis_fermion):
    sys = heis_fermion
    rng = random.Random(11)
    mod = sys
    for _ in range(10):
        a = random_homogeneous_field(mod, rng, 1 + rng.randrange(4))
        b = random_homogeneous_field(mod, rng, 1 + rng.randrange(4))
        if a is None or b is None:
            continue
        br = bracket(a, b)
        lw_a, lw_b = (max(sum(sys.gens[g].weight2 + 2 * d for (g, d) in w)
                          for (w, _) in f.terms) for f in (a, b))
        bound = (lw_a + lw_b) // 2 - 1
        assert all(n <= bound for n in br)


def test_axioms_on_seeded_samples(heis_fermion):
    sys = heis_fermion
    mod = sys
    rng = random.Random(77)
    for _ in range(10):
        a = random_homogeneous_field(mod, rng, 1 + rng.randrange(4))
        b = random_homogeneous_field(mod, rng, 1 + rng.randrange(4))
        c = random_homogeneous_field(mod, rng, 1 + rng.randrange(4))
        if None in (a, b, c):
            continue
        assert check_skew(a, b, bracket)
        assert check_jacobi(a, b, c, bracket)
        assert check_wick(a, b, c, bracket)
        v = {key: sys.field.one for key in graded_basis(mod, 3)}
        case = (v, rng.randint(-2, 2), rng.randint(-2, 2))
        assert check_commutator(a, b, [case], bracket) is None, case


@pytest.mark.parametrize("hh, invariant", [(2, True), (4, False)])
def test_bracket_axiom_checks_can_fail(hh, invariant):
    """Affine sl_2 currents with (e|f) = k, [h_l e] = 2e, [h_l f] = -2f and
    [e_l f] = h + k l: Jacobi and Wick hold for the invariant form
    (h|h) = 2k, and both checks fail for (h|h) = 4k."""
    F = RationalFunctionField("k")
    k = F.gen
    sys = Module(F)
    e, h, f = (sys.add_gen(name, parity=0, weight2=2) for name in "ehf")
    sys.set_bracket(h, e, {0: comb(terms=[(e, 0, F.lift(2))])})
    sys.set_bracket(h, f, {0: comb(terms=[(f, 0, F.lift(-2))])})
    sys.set_bracket(e, f, {0: comb(terms=[(h, 0, F.one)]),
                           1: comb(const=k)})
    sys.set_bracket(h, h, {1: comb(const=k * hh)})
    E, H, Fm = (sys.gen_field(g) for g in (e, h, f))
    assert check_jacobi(E, Fm, H, bracket) is invariant
    assert check_jacobi(H, E, Fm, bracket) is invariant
    assert check_wick(E, Fm, H, bracket) is invariant


def test_lattice_affine_sl2_realization():
    """On the even rank-one lattice with (mu|mu) = 2 the exponentials
    realize the level-one affine sl_2: [e^mu_l e^-mu] = J + l, with
    skew-symmetry, Jacobi and the Wick expansion exact even though the
    momentum pairing is negative."""
    F = QQ
    sysA = Module(F)
    j = sysA.add_gen("J", parity=0, weight2=2, current=True)
    sysA.set_bracket(j, j, {1: comb(const=F.lift(2))})
    Ep = sysA.exp_field((F.one,))
    Em = sysA.exp_field((-F.one,))
    Jf = sysA.gen_field("J")
    one = sysA.one_field()
    assert bracket(Ep, Em) == {0: Jf, 1: one}
    assert bracket(Em, Ep) == {0: -Jf, 1: one}
    assert bracket(Jf, Ep) == {0: Ep.scale_fraction(2)}
    assert bracket(Ep, Ep) == {}
    assert check_skew(Ep, Em, bracket) and check_skew(Jf, Ep, bracket)
    assert check_jacobi(Ep, Em, Jf, bracket)
    assert check_jacobi(Jf, Ep, Em, bracket)
    assert check_wick(Ep, Em, Jf, bracket)
    assert check_wick(Jf, Ep, Em, bracket)


def test_momentum_needs_current_span(heis_fermion):
    from vertexscreen.vertexcalc import NonAbelianMomentum
    sys = heis_fermion
    with pytest.raises(NonAbelianMomentum):
        sys.momentum_tag((sys.field.one, sys.field.one))  # only one current


def _partition_mults(total):
    """All multiplicity dicts {part: mult} with sum part*mult == total."""
    out = []

    def rec(remaining, max_part, current):
        if remaining == 0:
            out.append(dict(current))
            return
        for part in range(min(max_part, remaining), 0, -1):
            for mult in range(remaining // part, 0, -1):
                current[part] = mult
                rec(remaining - part * mult, part - 1, current)
                del current[part]

    rec(total, total, {})
    return out


def _mom_mode(mod, mom, n, state):
    """mu_(n) on a state: sum_i mu_i J^i_(n)."""
    acc = {}
    for j, c in enumerate(mom):
        if c:
            part = mod.gen_mode_state(mod.currents[j], n, state)
            for key, v in part.items():
                cur = acc.get(key)
                acc[key] = v * c if cur is None else cur + v * c
    return {k: v for k, v in acc.items() if v}


def _exp_coeff_by_partitions(mod, gram, mom, J, w0, tag):
    """[z^J] e^{int mu}(z) on one monomial, expanding both exponentials
    as sums over partitions: the coefficient of z^(-b) in
    exp(-sum_j mu_(j) z^(-j)/j) is sum over partitions of b of
    prod_n (-mu_(n)/n)^m_n / m_n!, and likewise for the creation part."""
    field = mod.field
    sys = mod
    p_int = int(str(_pair(gram, mom, tag[1])))
    new_tag = sys.momentum_tag(tuple(a + b for a, b in zip(tag[1], mom)))
    out = {}
    for bsum in range(0, mod.word_depth2(w0) // 2 + 1):
        asum = J - p_int + bsum
        if asum < 0:
            continue
        for bpart in _partition_mults(bsum):
            st = {(w0, tag): field.one}
            coeff = Fraction(1)
            for n, mult in bpart.items():
                coeff *= Fraction((-1) ** mult, n ** mult * factorial(mult))
                for _ in range(mult):
                    st = _mom_mode(mod, mom, n, st)
            st = {(w, new_tag): c for (w, t), c in st.items()}
            for apart in _partition_mults(asum):
                st2 = st
                c2 = coeff
                for n, mult in apart.items():
                    c2 *= Fraction(1, n ** mult * factorial(mult))
                    for _ in range(mult):
                        st2 = _mom_mode(mod, mom, -n, st2)
                for key, v in st2.items():
                    cur = out.get(key, field.zero)
                    out[key] = cur + v * field.lift(c2)
    return {k: v for k, v in out.items() if v}


def _check_exp_against_partitions(mod, gram, momenta, starts, max_w2=8):
    """Module.word_coeff_state((), mu, J, .) equals the partition sum on
    every monomial to doubled depth max_w2 over each starting momentum,
    pairing momenta by gram (an integer in every case here).
    On a monomial of doubled depth w2 the coefficient is nonzero from
    J = p - w2 // 2 on (p the momentum pairing) and lands at doubled depth
    w2 + 2 (J - p); J runs from one below that range to the last J that
    lands within max_w2."""
    sys = mod
    field = mod.field
    checked = 0
    for mu in momenta:
        for start in starts:
            tag = sys.momentum_tag(start)
            p = int(str(_pair(gram, mu, start)))
            for w2 in range(max_w2 + 1):
                for (w, _) in graded_basis(mod, w2):
                    for J in range(p - w2 // 2 - 1,
                                   p + (max_w2 - w2) // 2 + 1):
                        got = mod.word_coeff_state((), sys.momentum_tag(mu),
                                                   J, {(w, tag): field.one})
                        want = _exp_coeff_by_partitions(mod, gram, mu, J,
                                                        w, tag)
                        assert got == want, (mu, start, w, J)
                        checked += bool(want)
    assert checked


def test_exp_recurrence_matches_partitions_heisenberg(heis_fermion):
    sys = heis_fermion
    F = sys.field
    mu = (F.one / (F.gen + 2),)
    # (mu|nu) = 2 nu: starting momenta with pairing 0, 1 and -2
    starts = [(F.zero,), (F.lift(Fraction(1, 2)),), (-F.one,)]
    _check_exp_against_partitions(sys, _heis_gram(F), [mu], starts)


@pytest.mark.parametrize("level", [Fraction(7, 2), "symbolic"])
def test_exp_recurrence_matches_partitions_osp1_4(level):
    ctx = preset_context("osp1_4-regular", level)
    momenta = [op.momentum[1] for op in exponential_screenings(ctx)]
    assert len(momenta) == 2
    # 2 (k + h_dual) mu pairs integrally with both screening momenta
    starts = [ctx.system.vacuum_tag()[1]]
    starts += [tuple(2 * ctx.kappa_shift * x for x in mu) for mu in momenta]
    _check_exp_against_partitions(ctx.system, _tau_gram(ctx), momenta, starts)


def test_exp_recurrence_matches_partitions_wb3():
    F = RationalFunctionField("s")
    s = F.gen
    model = WBnFields(3, F, s - F.one / s)
    z = F.zero
    momenta = [(s, -s, z), (z, s, -s), (z, z, s)]
    # (mu_1|nu) = 1 and (mu_i|nu) = 0 otherwise
    starts = [(z, z, z), (F.one / s, z, z)]
    _check_exp_against_partitions(model.system, _eye(F, 3), momenta, starts)


def _exp_coeff_per_b(mod, mom, J, w0, tag):
    """[z^J] e^{int mu}(z) on one monomial with the creation ladder
    C_1..C_top rebuilt on S_mu A_b for every b, as exp_coeff_mono did
    before it stored C_a m per monomial."""
    field = mod.field
    p_int = mod._mom_pairing_int(mom, tag)
    ladder, new_tag = mod._annihilation_ladder(mom, w0, tag)
    out = {}
    for b, st in enumerate(ladder):
        top = J - p_int + b
        if top < 0 or not st:
            continue
        up = [{(w, new_tag): c for (w, t), c in st.items()}]
        for a in range(1, top + 1):
            up.append(mod._exp_step(mom, up))
        state_acc(out, up[top], field.one, field)
    return {k: v for k, v in out.items() if v}


def _check_shared_creation_ladder(mod, momenta, fermion_op, monkeypatch,
                                  max_w2=8):
    """exp_coeff_mono equals the per-b rebuild on every vacuum-module
    monomial to doubled depth max_w2 (where screenings act), for every J
    that the fermion-dressed recursion, fermion_op = (fermion, mu), reaches on
    those monomials.  The momenta are tags of mod.momentum_tag, as the
    internals take them.  J runs once ascending on an empty creation memo, so
    stored ladders are extended at more than one J, and once descending on
    an emptied memo, so the first J builds every ladder and the later ones
    only read."""
    monos = [key for w2 in range(max_w2 + 1) for key in graded_basis(mod, w2)]
    reached = set()
    exp_coeff_mono = mod.exp_coeff_mono

    def recording(mom, J, w0, tag):
        reached.add(J)
        return exp_coeff_mono(mom, J, w0, tag)

    fermion, mu_f = fermion_op
    with monkeypatch.context() as mp:
        mp.setattr(mod, "exp_coeff_mono", recording)
        for (w, tag) in monos:
            mod.word_coeff_mono(((fermion, 0),), mu_f, -1, w, tag)
    assert len(reached) > 1
    want = {(mu, J, w, tag): _exp_coeff_per_b(mod, mu, J, w, tag)
            for mu in momenta for J in reached for (w, tag) in monos}
    assert any(want.values())
    creation_steps = [0]
    exp_step = mod._exp_step

    def counting(mom, ladder):
        creation_steps[0] += 1
        return exp_step(mom, ladder)

    monkeypatch.setattr(mod, "_exp_step", counting)
    for order in (sorted(reached), sorted(reached, reverse=True)):
        mod._creation_memo.clear()
        built_at = []
        for J in order:
            before = creation_steps[0]
            for mu in momenta:
                for (w, tag) in monos:
                    got = mod.exp_coeff_mono(mu, J, w, tag)
                    assert got == want[(mu, J, w, tag)], (mu, J, w, tag)
            if creation_steps[0] > before:
                built_at.append(J)
        if order[0] < order[-1]:
            assert len(built_at) > 1
        else:
            assert built_at == [order[0]]


@pytest.mark.parametrize("level", [Fraction(7, 2), "symbolic"])
def test_shared_creation_ladder_matches_per_b_osp1_4(level, monkeypatch):
    ctx = preset_context("osp1_4-regular", level)
    mod = ctx.system
    ops = exponential_screenings(ctx)
    momenta = [op.momentum for op in ops]
    assert all(mu is mod.momentum_tag(mu[1]) for mu in momenta)
    (fop,) = [(op.word[0][0], op.momentum) for op in ops if op.word]
    _check_shared_creation_ladder(mod, momenta, fop, monkeypatch)


def test_shared_creation_ladder_matches_per_b_wb3(monkeypatch):
    F = RationalFunctionField("s")
    s = F.gen
    model = WBnFields(3, F, s - F.one / s)
    z = F.zero
    mod = model.system
    momenta = [mod.momentum_tag(mu)
               for mu in [(s, -s, z), (z, s, -s), (z, z, s)]]
    _check_shared_creation_ladder(mod, momenta, (model.psi, momenta[2]),
                                  monkeypatch)


def _annihilation_by_straightening(mod, mom, w0, tag):
    """A_0..A_{D/2} on one monomial by the recurrence
    A_b = -(1/b) sum_{j=1..b} mu_(j) A_{b-j}, straightening every mu_(j)
    through gen_mode: how _annihilation_ladder computed them before the
    closed form."""
    field = mod.field
    parts = [(mod.currents[i], c) for i, c in enumerate(mom[1]) if c]
    ladder = [{(w0, tag): field.one}]
    for b in range(1, mod.word_depth2(w0) // 2 + 1):
        scale = field.lift(Fraction(-1, b))
        acc = {}
        for j in range(1, b + 1):
            for (w, t), c in ladder[b - j].items():
                for g, cg in parts:
                    state_acc(acc, mod.gen_mode(g, j, w, t), c * cg * scale,
                              field)
        ladder.append(trimmed(acc))
    return ladder


def _check_closed_form_annihilation(mod, momenta, starts, max_w2=8):
    """_annihilation_ladder equals the straightening recurrence on every
    monomial to doubled depth max_w2 over each starting momentum, and
    shifts the tag by mu.  Returns the words on which some A_b, b > 0,
    was nonzero."""
    reached = set()
    for mu in momenta:
        mom = mod.momentum_tag(mu)
        for start in starts:
            tag = mod.momentum_tag(start)
            shifted = mod.momentum_tag(a + b for a, b in zip(start, mu))
            for w2 in range(max_w2 + 1):
                for (w, _) in graded_basis(mod, w2):
                    got, new_tag = mod._annihilation_ladder(mom, w, tag)
                    want = _annihilation_by_straightening(mod, mom, w, tag)
                    assert list(got) == want, (mu, start, w)
                    assert new_tag is shifted
                    if any(want[1:]):
                        reached.add(w)
    return reached


def _repeats_a_current(mod, word):
    return any(a == b and a[0] in mod.current_pos
               for a, b in zip(word, word[1:]))


def _fermion_between_currents(mod, word):
    kinds = [g in mod.current_pos for g, _ in word]
    return any(not k and True in kinds[:i] and True in kinds[i + 1:]
               for i, k in enumerate(kinds))


def test_closed_form_annihilation_heisenberg(heis_fermion):
    sys = heis_fermion
    F = sys.field
    mu = (F.one / (F.gen + 2),)
    starts = [(F.zero,), (F.lift(Fraction(1, 2)),)]
    reached = _check_closed_form_annihilation(sys, [mu], starts)
    assert any(_repeats_a_current(sys, w) for w in reached)
    assert any(w[-1][0] not in sys.current_pos for w in reached)


def test_closed_form_annihilation_fermion_between_currents():
    """Letters sort by generator, so a fermion added between two currents
    sits between their letters in every PBW word that has all three."""
    F = RationalFunctionField("k")
    k = F.gen
    sys = Module(F)
    j = sys.add_gen("J", parity=0, weight2=2, current=True)
    psi = sys.add_gen("Psi", parity=1, weight2=1)
    kk = sys.add_gen("K", parity=0, weight2=2, current=True)
    gram = [[k + 2, F.one], [F.one, -F.lift(3)]]
    sys.set_bracket(j, j, {1: comb(const=gram[0][0])})
    sys.set_bracket(j, kk, {1: comb(const=gram[0][1])})
    sys.set_bracket(kk, kk, {1: comb(const=gram[1][1])})
    sys.set_bracket(psi, psi, {0: comb(const=F.one)})
    momenta = [(F.one, F.zero), (F.lift(2) / (k + 2), -F.one)]
    reached = _check_closed_form_annihilation(sys, momenta, [(F.zero,) * 2])
    assert any(_repeats_a_current(sys, w) for w in reached)
    assert any(_fermion_between_currents(sys, w) for w in reached)


@pytest.mark.parametrize("level", [Fraction(7, 2), "symbolic"])
def test_closed_form_annihilation_osp1_4(level):
    ctx = preset_context("osp1_4-regular", level)
    momenta = [op.momentum[1] for op in exponential_screenings(ctx)]
    starts = [ctx.system.vacuum_tag()[1]]
    starts += [tuple(2 * ctx.kappa_shift * x for x in mu) for mu in momenta]
    reached = _check_closed_form_annihilation(ctx.system, momenta, starts)
    assert any(_repeats_a_current(ctx.system, w) for w in reached)


def test_closed_form_annihilation_wb3():
    F = RationalFunctionField("s")
    s = F.gen
    model = WBnFields(3, F, s - F.one / s)
    z = F.zero
    momenta = [(s, -s, z), (z, s, -s), (z, z, s)]
    starts = [(z, z, z), (F.one / s, z, z)]
    reached = _check_closed_form_annihilation(model.system, momenta, starts)
    assert any(_repeats_a_current(model.system, w) for w in reached)


def _nonabelian_pair(F):
    # [E_l F] = H: a current pair whose bracket is not central
    sys = Module(F)
    e = sys.add_gen("E", parity=0, weight2=2, current=True)
    f = sys.add_gen("F", parity=0, weight2=2, current=True)
    h = sys.add_gen("H", parity=0, weight2=2)
    sys.set_bracket(e, f, {0: comb(terms=((h, 0, F.one),)),
                           1: comb(const=F.one)})
    return sys, (F.one, F.zero), "brackets with F"


def _odd_current(F):
    sys = Module(F)
    x = sys.add_gen("X", parity=1, weight2=2, current=True)
    sys.set_bracket(x, x, {0: comb(const=F.one)})
    return sys, (F.one,), "odd"


def _current_and_other_letter(F):
    # [J_l Phi] = l: a central bracket, but with a letter outside the
    # current span
    sys = Module(F)
    j = sys.add_gen("J", parity=0, weight2=2, current=True)
    phi = sys.add_gen("Phi", parity=0, weight2=2)
    sys.set_bracket(j, j, {1: comb(const=F.one)})
    sys.set_bracket(j, phi, {1: comb(const=F.one)})
    return sys, (F.one,), "brackets with Phi"


@pytest.mark.parametrize("build", [_nonabelian_pair, _odd_current,
                                   _current_and_other_letter])
def test_closed_form_annihilation_guard(build):
    """Where the currents in play are not a Heisenberg algebra commuting
    with every other letter, e^{int mu} raises NonAbelianMomentum instead
    of applying the closed form, on the vacuum as on any state."""
    from vertexscreen.vertexcalc import NonAbelianMomentum
    sys, mu, message = build(QQ)
    with pytest.raises(NonAbelianMomentum, match=message):
        sys.word_coeff_state((), sys.momentum_tag(mu), 0,
                             {((), sys.vacuum_tag()): QQ.one})


def _check_gram(mod, gram, momenta, starts):
    """The Gram the module reads off its bracket table is gram: for each
    momentum mu and Fock tag nu, _mom_pairing_int gives (mu|nu), and every
    current J has the zero mode (J|nu) on the highest vector of nu."""
    field = mod.field
    for nu in starts:
        tag = mod.momentum_tag(nu)
        for mu in momenta:
            got = mod._mom_pairing_int(mod.momentum_tag(mu), tag)
            assert field.lift(got) == _pair(gram, mu, nu), (mu, nu)
        for i, g in enumerate(mod.currents):
            unit = [field.zero] * len(mod.currents)
            unit[i] = field.one
            want = _pair(gram, unit, nu)
            assert mod.gen_mode(g, 0, (), tag) == (
                {((), tag): want} if want else {}), (g, nu)


CARTAN_PRESETS = [p for p in preset_names() if build_preset(p).g0_is_cartan()]


@pytest.mark.parametrize("level", ["symbolic", Fraction(7, 2)])
@pytest.mark.parametrize("preset", CARTAN_PRESETS)
def test_derived_gram_is_tau_k(preset, level):
    ctx = preset_context(preset, level)
    momenta = [op.momentum[1] for op in exponential_screenings(ctx)]
    assert momenta
    starts = [ctx.system.vacuum_tag()[1]]
    starts += [tuple(2 * ctx.kappa_shift * x for x in mu) for mu in momenta]
    _check_gram(ctx.system, _tau_gram(ctx), momenta, starts)


def test_derived_gram_of_the_models():
    m = W2nModel(3)
    xi = m.coords({m.xig: m.field.one})
    units = [m.coords({g: m.field.one}) for g in m.system.currents]
    _check_gram(m.system, m.gram, [xi, tuple(-x for x in xi)],
                [m.coords({})] + units)
    F = RationalFunctionField("s")
    s = F.gen
    model = WBnFields(3, F, s - F.one / s)
    z = F.zero
    _check_gram(model.system, _eye(F, 3),
                [(s, -s, z), (z, s, -s), (z, z, s)],
                [(z, z, z), (F.one / s, z, z)])


def test_comb_is_a_dict_of_nonzero_parts():
    assert comb() == {}
    assert comb(const=QQ.zero, terms=[(0, 1, QQ.zero)]) == {}
    assert comb(const=QQ.lift(2), terms=[(0, 1, QQ.one), (1, 0, QQ.zero)]) \
        == {(): QQ.lift(2), (0, 1): QQ.one}


def test_skew_inconsistent_tables_raise():
    sys = Module(QQ)
    a = sys.add_gen("A", parity=0, weight2=2)
    b = sys.add_gen("B", parity=0, weight2=2)
    # [A_l A] = 1 breaks skew-symmetry for an even A
    with pytest.raises(ValueError, match="itself"):
        sys.set_bracket(a, a, {0: {(): QQ.one}})
    # [A_l B] = A forces [B_l A] = -A, not A
    sys.set_bracket(a, b, {0: {(a, 0): QQ.one}})
    assert sys.brackets[(b, a)] == {0: {(a, 0): -QQ.one}}
    with pytest.raises(ValueError, match="inconsistent with skew"):
        sys.set_bracket(b, a, {0: {(a, 0): QQ.one}})


def test_tags_are_interned(heis_fermion):
    sys = heis_fermion
    F = sys.field
    assert sys.vacuum_tag() is sys.vacuum_tag()
    mu0 = F.one / (F.gen + 2)
    tag = sys.momentum_tag((mu0,))
    assert sys.momentum_tag((F.zero + mu0,)) is tag
    k2 = F.gen + 2
    assert sys.momentum_tag([k2 / (k2 * k2)]) is tag
    assert sys.momentum_tag((mu0 - mu0,)) is sys.vacuum_tag()
    # a momentum tag is its Fock highest vector: none is stored for it
    with pytest.raises(UndefinedAction):
        sys.hv(tag)
    assert not sys.hvs
    # indexing and str are those of the plain tuple
    assert (tag[0], tag[1]) == ("m", (mu0,))
    assert str(tag) == str(("m", (mu0,)))
    assert str(sys.vacuum_tag()) == str(("m", (F.zero,)))
    xtag = sys.register_hv(("y", 1))
    assert xtag is sys.induced_tag(("y", 1))
    assert str(xtag) == str(("x", ("y", 1)))
    # a tag equals only itself: the equal-looking vacuum of another system
    # is a different tag
    other = Module(F)
    other.add_gen("J", parity=0, weight2=2, current=True)
    assert str(other.vacuum_tag()) == str(sys.vacuum_tag())
    assert other.vacuum_tag() != sys.vacuum_tag()
    assert not other.vacuum_tag() == sys.vacuum_tag()


def test_kernels_store_no_fock_highest_vector():
    """A symbolic osp1_4-regular kernel to doubled weight 6 runs its
    lattice exponentials on momentum tags alone: the stored highest
    vectors are the induced x_a the context registered, and no more."""
    ctx = preset_context("osp1_4-regular", "symbolic")
    kind, ops = choose_screenings(ctx)
    assert kind == "exponential"
    for w2 in range(7):
        kernel_basis(ctx, ops, w2)
    hvs = ctx.system.hvs
    assert all(tag[0] == "x" for tag in hvs)
    assert sorted(map(str, hvs)) == sorted(map(str, ctx.xtag_of_root.values()))
    with pytest.raises(UndefinedAction):
        ctx.system.hv(ops[0].momentum)


def test_momentum_keys_are_interned_tags():
    """A field's momentum is the interned tag: exp_field keys its term by
    momentum_tag(mu), and bracket and normal_order of W2nModel(3)'s E and
    F give fields keyed by tags of the same system, with no key for
    momentum zero."""
    m = W2nModel(3)
    sys = m.system
    mu = m.coords({m.xig: m.field.one})
    (key,) = sys.exp_field(mu).terms
    assert key[0] == () and key[1] is sys.momentum_tag(mu)
    psi = sys.gen_field(m.psig)
    charged = [normal_order(m.E, m.E), normal_order(m.F, m.F),
               normal_order(psi, m.F), *bracket(psi, m.F).values(),
               *bracket(psi, m.E).values()]
    neutral = [normal_order(m.E, m.F), *bracket(m.E, m.F).values()]
    assert all(fe.terms for fe in charged + neutral)
    for fe in charged:
        keys = [mom for (_, mom) in fe.terms]
        assert keys and all(mom is sys.momentum_tag(mom[1]) for mom in keys)
        assert sys.vacuum_tag() not in keys
    for fe in neutral:
        assert all(mom is None for (_, mom) in fe.terms)


def test_screening_zero_modes_use_registered_tags():
    ctx = preset_context("sl3-subregular", "symbolic")
    sys = ctx.system
    hvs = ctx.system.hvs
    xtags = set(ctx.xtag_of_root.values())
    assert xtags
    seen = 0
    # tags hash and compare by identity, so a key found is the tag itself
    keys = list(hvs)
    for tag in xtags:
        assert any(key is tag for key in keys)
        assert tag is sys.induced_tag(tag[1])
        for table in hvs[tag].zero_modes.values():
            for t2 in table:
                assert t2 in xtags and any(key is t2 for key in keys)
                seen += 1
    assert seen


@pytest.mark.parametrize("level", ["symbolic", Fraction(7, 2)])
@pytest.mark.parametrize("preset", ["sl3-subregular", "osp1_4-regular"])
def test_derivative_letter_modes(preset, level):
    """(d^d g)_(n) = (-1)^d n(n-1)...(n-d+1) g_(n-d), the factor the word
    coefficients fold in once per mode: checked against the generator's
    own modes for n of both signs, which run the creation (n < 0) and the
    annihilation (n >= 0) loop of Module.word_coeff_mono."""
    module = preset_context(preset, level).system
    field = module.field
    states = [{key: field.one} for w2 in range(0, 5)
              for key in graded_basis(module, w2)]
    for g in range(len(module.gens)):
        for d in (1, 2, 3):
            letter = module.gen_field(g, d)
            for n in range(-4, 5):
                f = field.lift((-1) ** d * prod(range(n - d + 1, n + 1)))
                for v in states:
                    want = trimmed({key: c * f for key, c in
                                    module.gen_mode_state(g, n - d, v).items()})
                    assert apply_field_coeff(letter, -n - 1, v) == want


@pytest.mark.parametrize("level", ["symbolic", Fraction(7, 2)])
@pytest.mark.parametrize("preset", ["sl3-subregular", "osp1_4-regular"])
def test_composite_derivative_word(preset, level):
    """The word :(d^d g) h: read directly, with its derivative letter,
    equals the normally ordered product of derive_n(g, d) and h taken by
    its mode definition,
        [z^J] :a b: v = sum_{n<0} a_(n) b_(m) v
                        + (-1)^{p_a p_b} sum_{n>=0} b_(m) a_(n) v,
    m = -J - n - 2, and the canonical field normal_order builds."""
    module = preset_context(preset, level).system
    field = module.field
    # one state per doubled weight: its basis with coefficients 1, 2, ...
    states = [{key: field.lift(i + 1)
               for i, key in enumerate(graded_basis(module, w2))}
              for w2 in range(0, 4)]
    states = [v for v in states if v]
    gens = range(len(module.gens))
    for g in gens:
        for h in gens:
            sign = field.lift((-1) ** (module.gens[g].parity
                                       * module.gens[h].parity))
            b = module.gen_field(h)
            for d in (1, 2):
                a = derive_n(module.gen_field(g), d)
                word = FieldExpr(module, {(((g, d), (h, 0)), None): field.one})
                canonical = normal_order(a, b)
                for J in range(-2, 2):
                    for v in states:
                        want = {}
                        for n in range(-7, 6):
                            m = -J - n - 2
                            if n < 0:
                                state_acc(want, apply_field_coeff(
                                    a, -n - 1, apply_field_coeff(b, -m - 1, v)),
                                    field.one, field)
                            else:
                                state_acc(want, apply_field_coeff(
                                    b, -m - 1, apply_field_coeff(a, -n - 1, v)),
                                    sign, field)
                        want = trimmed(want)
                        assert apply_field_coeff(word, J, v) == want
                        assert apply_field_coeff(canonical, J, v) == want


@pytest.mark.parametrize("field", [QQ, RationalFunctionField("k")])
def test_state_acc_unit_entries_match_naive_sum(field):
    """state_acc stores coeff itself for an entry that is field.one; the
    sum must equal the plain one, for entries that are that object, entries
    equal to 1 that are other objects, and coeff 0, field.one or another
    value."""
    one = field.one
    other_one = field.lift(Fraction(3, 3))
    assert other_one == one and other_one is not one
    x = field.lift(Fraction(-2, 5)) if field is QQ else field.gen / 3
    part = {"a": one, "b": other_one, "c": x, "d": one}
    for coeff in (field.zero, one, field.lift(Fraction(7, 4)), x + 1):
        for start in ({}, {"a": x, "c": -x, "e": one}):
            acc = dict(start)
            state_acc(acc, part, coeff, field)
            want = dict(start)
            for key, c in part.items():
                if coeff:
                    want[key] = want.get(key, field.zero) + c * coeff
            assert acc == want
            assert part == {"a": one, "b": other_one, "c": x, "d": one}


def test_bracket_memos_left_intact():
    """The word-coefficient, translation and mode memos are only read by
    their callers, and a sum may hold a caller's coefficient object itself:
    after a Wick/Jacobi run and a derivative have filled the three memos,
    further brackets, normal orders and derivatives leave every stored
    entry as it was."""
    module = preset_context("osp1_4-regular").system
    rng = random.Random(5)
    fields = [random_homogeneous_field(module, rng, w2)
              for w2 in (1, 2, 2, 3, 3, 4)]
    a, b, c = fields[:3]
    assert check_skew(a, b, bracket) and check_jacobi(a, b, c, bracket) \
        and check_wick(a, b, c, bracket)
    derive_n(c, 2)
    memos = (module._word_memo, module._translate_memo, module._mode_memo)
    snaps = [{key: dict(val) for key, val in memo.items()} for memo in memos]
    assert all(snaps)
    for x in fields:
        for y in fields:
            bracket(x, y)
            normal_order(x, y)
        derive(x)
    assert check_skew(fields[3], fields[4], bracket)
    for memo, snap in zip(memos, snaps):
        for key, val in snap.items():
            assert memo[key] == val, key


def _one_letter_by_recursion(mod, g, d, J, w0, tag):
    """[z^J] of d^d g on one monomial by the general first-letter recursion
    of Module.word_coeff_mono with the empty word as the rest: how a
    one-letter word was computed before its closed form.  The creation loop
    runs n = -i - 1 for i <= imax, the annihilation loop n = i for
    d <= i <= imax2, and the empty word keeps only J - i = 0, resp.
    J + i + 1 = 0."""
    field = mod.field

    def empty(J2, w, t):
        return {(w, t): field.one} if J2 == 0 else {}

    D2 = mod.word_depth2(w0)
    acc = {}
    for i in range(0, (D2 + 2 * J) // 2 + 1):
        lf = field.lift(prod(range(i + 1, i + d + 1)))
        for (w2, t2), c in empty(J - i, w0, tag).items():
            state_acc(acc, mod.gen_mode(g, -i - 1 - d, w2, t2), c * lf, field)
    w2a = mod.gens[g].weight2 + 2 * d
    for i in range(d, (D2 + w2a) // 2):
        lf = field.lift((-1) ** d * prod(range(i - d + 1, i + 1)))
        for (w2, t2), c in mod.gen_mode(g, i - d, w0, tag).items():
            state_acc(acc, empty(J + i + 1, w2, t2), c * lf, field)
    return trimmed(acc)


@pytest.mark.parametrize("level", ["symbolic", Fraction(7, 2)])
@pytest.mark.parametrize("preset", ["sl3-subregular", "osp1_4-regular",
                                    "sl3-subregular-cartan"])
def test_one_letter_word_matches_recursion(preset, level):
    """A one-letter word d^d g without momentum is read in closed form,
    (d^d g)_(n) = (-1)^d ff(n, d) g_(n-d) at n = -J - 1; it must equal the
    general recursion on every monomial to doubled depth 8, for d = 0, 1, 2
    and every J from below the lowest nonzero coefficient (the bracket's
    cutoff) up past the creation modes that normal_order and
    check_commutator ask for."""
    mod = preset_context(preset, level).system
    seen = 0
    for w2 in range(0, 9):
        for (w, tag) in graded_basis(mod, w2):
            for g, gen in enumerate(mod.gens):
                for d in (0, 1, 2):
                    for J in range(-(w2 + gen.weight2 + 2 * d) // 2 - 1, 4):
                        got = mod.word_coeff_mono(((g, d),), None, J, w, tag)
                        want = _one_letter_by_recursion(mod, g, d, J, w, tag)
                        assert got == want, (g, d, J, w)
                        seen += bool(want) and J < 0
    assert seen


@pytest.mark.parametrize("preset", WICK_PRESETS)
def test_bracket_top_entry_past_cutoff_is_zero(preset):
    """bracket stops at n = (depth_b + w2a) // 2 - 1 for a term without
    momentum: the next mode, where it used to stop, sends b below depth
    zero.  Checked on the generators, their derivatives, their normally
    ordered pairs and seeded composite fields of each verify-wick
    module."""
    module = preset_context(preset).system
    rng = random.Random(3)
    gens = [module.gen_field(g) for g in range(len(module.gens))]
    fields = gens + [derive(x) for x in gens]
    fields += [normal_order(x, y) for x in gens for y in gens]
    fields += [f for f in (random_homogeneous_field(module, rng, w2)
                           for w2 in (2, 3, 4, 5, 6)) if f is not None]
    for a in fields:
        for b in fields:
            bstate = field_state(b)
            depth_b = module.state_depth2(bstate)
            for (word, mom) in a.terms:
                w2a = sum(module.gens[g].weight2 + 2 * d for (g, d) in word)
                n = (depth_b + w2a) // 2
                assert not module.word_coeff_state(word, mom, -n - 1, bstate)


@pytest.mark.parametrize("preset", WICK_PRESETS)
def test_word_tables_equal_direct_sums(preset):
    """Module.word_depth2 and field_word_info keep each word's depth,
    parity and doubled weight once per module: on the first call and when
    read back, they equal the sums over the letters for every state word
    of doubled weight at most 6 and for the field word of each state."""
    module = preset_context(preset).system
    gens = module.gens
    seen = 0
    for _ in range(2):
        for w2 in range(0, 7):
            for key in graded_basis(module, w2):
                word = key[0]
                assert module.word_depth2(word) == w2 == sum(
                    gens[g].weight2 - 2 * m - 2 for (g, m) in word)
                fe = state_field({key: module.field.one}, module)
                for (fword, _) in fe.terms:
                    assert module.field_word_info(fword) == (
                        sum(gens[g].parity for (g, _) in fword) % 2,
                        sum(gens[g].weight2 + 2 * d for (g, d) in fword))
                    seen += 1
    assert seen


def test_trimmed_hands_back_acc_unless_a_value_is_zero():
    """Without a zero, trimmed is acc itself; with one, a new dict without
    it, and acc is left as it was."""
    one, zero = QQ.one, QQ.zero
    acc = {"a": one, "b": QQ.lift(Fraction(-2, 3))}
    assert trimmed(acc) is acc
    assert acc == {"a": one, "b": QQ.lift(Fraction(-2, 3))}
    empty = {}
    assert trimmed(empty) is empty
    acc = {"a": one, "b": zero, "c": -one}
    out = trimmed(acc)
    assert out is not acc
    assert out == {"a": one, "c": -one}
    assert acc == {"a": one, "b": zero, "c": -one}
    assert list(out) == ["a", "c"]


def _word_coeff_by_state_sum(module, word, mom, J, state):
    """[z^J] word(z) state as word_coeff_state read before sums were added
    into the caller's state: one trimmed state_sum over the monomials."""
    return state_sum(((module.word_coeff_mono(word, mom, J, w, t), c)
                      for (w, t), c in state.items()), module.field)


@pytest.mark.parametrize("level", ["symbolic", Fraction(7, 2)])
def test_word_coeff_acc_matches_state_sum(level):
    """Module.word_coeff_acc adds coeff * [z^J] word(z) state into a
    nonempty acc, and apply_field_coeff sums its terms the same way; both
    must equal state_acc of the trimmed state_sum they replace, for coeff
    one, minus one, another value and zero.  The words are the letters of
    osp1_4-regular, seeded composite fields and its exponential screenings
    (a fermion letter times e^{int mu}, and e^{int mu} alone)."""
    ctx = preset_context("osp1_4-regular", level)
    module = ctx.system
    field = module.field
    rng = random.Random(26)
    fields = [module.gen_field(g) for g in range(len(module.gens))]
    fields += [f for f in (random_homogeneous_field(module, rng, w2)
                           for w2 in (2, 3, 4)) if f is not None]
    fields += [FieldExpr(module, {(op.word, op.momentum): field.one})
               for op in exponential_screenings(ctx)]
    assert any(mom is not None for f in fields for (_, mom) in f.terms)
    states = [{key: field.lift(rng.randint(1, 3) * rng.choice((1, -1)))
               for key in graded_basis(module, w2)} for w2 in (0, 2, 3)]
    start = {key: field.lift(i + 2) for i, key in
             enumerate(graded_basis(module, 2) + graded_basis(module, 3))}
    coeffs = (field.one, -field.one, field.lift(Fraction(-3, 7)), field.zero)
    seen = 0
    for f in fields:
        for v in states:
            for J in range(-3, 1):
                sums = [(_word_coeff_by_state_sum(module, word, mom, J, v), c)
                        for (word, mom), c in f.terms.items()]
                for coeff in coeffs:
                    for (word, mom), c in f.terms.items():
                        acc = dict(start)
                        module.word_coeff_acc(acc, word, mom, J, v, coeff)
                        want = dict(start)
                        state_acc(want, _word_coeff_by_state_sum(
                            module, word, mom, J, v), coeff, field)
                        assert trimmed(acc) == trimmed(want)
                    acc = dict(start)
                    state_acc(acc, apply_field_coeff(f, J, v), coeff, field)
                    want = dict(start)
                    state_acc(want, state_sum(sums, field), coeff, field)
                    assert trimmed(acc) == trimmed(want)
                    seen += any(part for part, _ in sums) and bool(coeff)
    assert seen


@pytest.mark.parametrize("level", ["symbolic", Fraction(7, 2)])
def test_word_sums_leave_memo_entries_intact(level):
    """Word-coefficient sums are added straight into the caller's state,
    and trimmed hands that state back uncopied, so a sum that started from
    a memo entry would corrupt the memo.  After a first pass fills the
    mode, word and translation memos of each verify-wick module, bracket,
    normal_order, derive and apply_field_coeff on the same and on new
    seeded fields must leave every stored entry as it was."""
    rng = random.Random(2026)

    def run(fields):
        for a in fields:
            derive(a)
            for b in fields:
                bracket(a, b)
                normal_order(a, b)
                v = field_state(b)
                for J in (-2, -1, 0):
                    apply_field_coeff(a, J, v)

    for preset in WICK_PRESETS:
        module = preset_context(preset, level).system
        fields = [f for f in (random_homogeneous_field(
            module, rng, 1 + rng.randrange(6)) for _ in range(8))
            if f is not None]
        run(fields[:4])
        memos = (module._mode_memo, module._word_memo,
                 module._translate_memo)
        snaps = [{key: dict(val) for key, val in memo.items()}
                 for memo in memos]
        assert all(snaps)
        run(fields)
        for memo, snap in zip(memos, snaps):
            for key, val in snap.items():
                assert memo[key] == val, (preset, key)
