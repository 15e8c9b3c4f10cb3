from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

from vertexscreen import verify as verify_module, walgebras
from vertexscreen.linalg import matrix_rank, nullspace, solve_in_span
from vertexscreen.presets import build_preset, preset_context, preset_names
from vertexscreen.scalars import QQ, RationalFunctionField
from vertexscreen.screening import (choose_screenings, expected_character,
                                    generic_screenings,
                                    exponential_screenings, image_rows,
                                    kernel_basis)
from vertexscreen.vertexcalc import (apply_field_coeff, bracket, derive,
                                     field_state, graded_basis, normal_order,
                                     state_acc, state_field, trimmed)
from vertexscreen.verify import check_commutator, verify_brst, verify_miura
from vertexscreen.walgebras import (NonZeroCharge, W2nModel, WakimotoMap,
                                    WBnModel, build_complex, koszul_sorted,
                                    miura_project, verify_fs,
                                    verify_wbn_screening)

from sugawara_helper import sugawara

F = RationalFunctionField("k")


def make_brst(preset):
    grading = build_preset(preset)
    return build_complex(grading, F, F.gen), \
        (grading.datum, grading, grading.base, grading.levelform, grading.chi)


# ---------------------------------------------------------------------------
# BRST


def test_brst_tables_sl2():
    brst, _ = make_brst("sl2-regular")
    names = {g.name: i for i, g in enumerate(brst.system.gens)}
    img = brst.d0_image[names["J[h1]"]]
    assert img == brst.system.gen_field("ph[a1]").scale_fraction(2)
    img = brst.d0_image[names["J[-a1]"]]
    want = normal_order(brst.system.gen_field("J[h1]"),
                        brst.system.gen_field("ph[a1]")) + \
        derive(brst.system.gen_field("ph[a1]")).scale(F.gen + 2)
    assert img == want
    # charged fermion of the base root is closed
    assert brst.d0_image[names["ph[a1]"]].is_zero()


def test_brst_a_k_on_base_roots():
    """a_k(e_{-a}|e_a) = (k + h_dual)(e_{-a}|e_a) for base roots."""
    for preset in ("sl2-regular", "sl3-subregular", "osp1_2-regular",
                   "osp1_4-regular"):
        brst, (datum, grading, base, lf, ch) = make_brst(preset)
        shift = F.gen + F.lift(lf.h_dual)
        for bidx in base.pi_half:
            neg = datum.neg_index(bidx)
            want = shift * F.lift(datum.form_entry(neg, bidx))
            assert brst.a_k(neg, bidx) == want, (preset, bidx)


@pytest.mark.parametrize("preset", preset_names())
def test_brst_a_k_is_the_restricted_supertrace(preset):
    """a_k(v, w) = str(ad(e_v) pi_{>0} ad(e_w)) + k (e_v|e_w) on every pair
    of basis indices, with the supertrace summed here from the structure
    constants.  On osp(1|2n) this pins the sign of the odd currents."""
    brst, (datum, grading, base, lf, ch) = make_brst(preset)
    n = datum.nbasis
    plus = {b for b in range(n) if grading.deg2[b] > 0}
    for v in range(n):
        for w in range(n):
            acc = Fraction(0)
            for b in range(n):
                # diagonal entry at e_b of ad(e_v) pi_{>0} ad(e_w)
                for m, c in datum.bracket(w, b).items():
                    if m in plus:
                        acc += (-1) ** datum.parity[b] * c * \
                            datum.bracket(v, m).get(b, 0)
            want = F.lift(acc) + F.gen * F.lift(datum.form_entry(v, w))
            assert brst.a_k(v, w) == want, (preset, v, w)


def test_brst_neutral_differential_osp():
    """d0 Phi_a = sum_b chi([e_b, e_a]) ph^b."""
    brst, (datum, grading, base, lf, ch) = make_brst("osp1_2-regular")
    b = grading.delta_half_indices()[0]
    img = brst.d0_image[brst.neutral[b]]
    val = ch.of_comb(datum.bracket(b, b))
    want = brst.system.gen_field(brst.phigen[b]).scale(F.lift(val))
    assert img == want


def test_brst_d0_squares_to_zero():
    for preset, w2max in (("sl2-regular", 8), ("osp1_2-regular", 8),
                          ("osp1_4-regular", 8), ("sl3-subregular", 4)):
        brst, _ = make_brst(preset)
        for w2 in range(0, w2max + 1):
            for key in graded_basis(brst.system, w2):
                dd = brst.d0_state(brst.d0_state({key: F.one}))
                assert not dd, (preset, w2, key)


@pytest.mark.parametrize("preset", preset_names())
def test_brst_differential_images_are_canonical(preset):
    """Every word of every d_(0) image is sorted: the image survives the
    round trip through its state unchanged."""
    brst, _ = make_brst(preset)
    assert set(brst.d0_image) == set(range(len(brst.system.gens)))
    for img in brst.d0_image.values():
        assert state_field(field_state(img), brst.system) == img


# osp1_6-regular is left out: its 53 fields take about 8 s on the vacuum
# alone on a shared 2-vCPU machine
@pytest.mark.parametrize("preset, w2max", [
    ("sl2-regular", 2), ("osp1_2-regular", 2), ("osp1_4-regular", 0),
    ("sl3-regular", 1), ("sl3-subregular", 1), ("sl3-subregular-cartan", 0),
    ("sl4-subregular", 0)])
def test_brst_mode_commutators(preset, w2max):
    """[a_(m), b_(n)] v = sum_j C(m, j) (a_(j) b)_(m+n-j) v for every pair
    of BRST generators and nonzero d0 images, on every basis monomial v up
    to doubled weight w2max.  On osp(1|2n) this needs the odd currents
    J[-b] to square to half their nonzero self-bracket."""
    brst, _ = make_brst(preset)
    sys_ = brst.system
    fields = [sys_.gen_field(g) for g in range(len(sys_.gens))]
    fields += [img for _, img in sorted(brst.d0_image.items())
               if not img.is_zero()]
    cases = [({key: F.one}, m, n) for w2 in range(w2max + 1)
             for key in graded_basis(brst.system, w2)
             for m in (-1, 0) for n in (-1, 0)]
    for a in fields:
        for b in fields:
            bad = check_commutator(a, b, cases, bracket)
            assert bad is None, (preset, str(a), str(b)) + bad


def test_state_sums_leave_memo_entries_intact():
    """States are added in place, so a sum started from a memo entry would
    corrupt the memo.  After cohomology_dims fills the gen_mode, word and
    d0 memos, scaled d0 sums and mode commutators must leave every stored
    entry as it was; a one-letter word hands out gen_mode's stored dict as
    its own entry, so both memos hold it."""
    brst, _ = make_brst("sl3-subregular")
    brst.cohomology_dims(6)
    memos = (brst.system._mode_memo, brst.system._word_memo, brst._d0_memo)
    snaps = [{key: dict(val) for key, val in memo.items()} for memo in memos]
    assert all(snaps)
    for w2 in range(0, 7):
        keys = graded_basis(brst.system, w2)
        brst.d0_state({key: F.lift(i + 1) for i, key in enumerate(keys)})
        for key in keys:
            brst.d0_state({key: F.one})
    sys_ = brst.system
    fields = [sys_.gen_field(g) for g in range(len(sys_.gens))]
    cases = [({key: F.one}, m, n) for key in graded_basis(brst.system, 2)
             for m in (-1, 0) for n in (-1, 0)]
    for a in fields:
        for b in fields:
            assert check_commutator(a, b, cases, bracket) is None
    for memo, snap in zip(memos, snaps):
        for key, val in snap.items():
            assert memo[key] == val, key


def test_brst_d0_grading():
    """d_(0) raises charge by one and preserves the conformal weight."""
    brst, _ = make_brst("osp1_2-regular")
    mod = brst.system
    for w2 in range(0, 6):
        for key in graded_basis(mod, w2):
            img = brst.d0_state({key: F.one})
            c = mod.word_charge(key[0])
            for (w, t) in img:
                assert mod.word_charge(w) == c + 1
                assert mod.word_depth2(w) == w2


def test_brst_cohomology_sl2():
    brst, (datum, grading, base, lf, ch) = make_brst("sl2-regular")
    dims = brst.cohomology_dims(8)
    char = expected_character(datum, grading, 8)
    assert [dims.get((w2, 0), 0) for w2 in range(9)] == \
        [char[w2] for w2 in range(9)]
    assert all(v == 0 for (w2, c), v in dims.items() if c != 0)


def test_verify_brst_and_miura_osp():
    """H0 of the osp(1|2n) BRST complex is the free character at doubled
    weight 8, with no higher cohomology, and the Miura images of H0 lie in
    the screening kernel of osp(1|2)."""
    for preset in ("osp1_2-regular", "osp1_4-regular"):
        args = SimpleNamespace(preset=preset, level="symbolic", max_weight=8)
        doc = verify_brst(args, None)
        assert doc["status"] == "pass", doc["witness"]
        assert doc["h0_dims"] == doc["character"]
    args = SimpleNamespace(preset="osp1_2-regular", level="symbolic",
                           max_weight=8)
    doc = verify_miura(args, None)
    assert doc["status"] == "pass", doc["witness"]


def test_brst_cohomology_osp():
    brst, (datum, grading, base, lf, ch) = make_brst("osp1_2-regular")
    dims = brst.cohomology_dims(6)
    char = expected_character(datum, grading, 6)
    assert [dims.get((w2, 0), 0) for w2 in range(7)] == \
        [char[w2] for w2 in range(7)]
    assert all(v == 0 for (w2, c), v in dims.items() if c != 0)


def _exact_dims(brst, max_w2):
    """{(weight2, charge): dim H} from linalg.matrix_rank over the field on
    the columns of every d_(0), with no rank mod P."""
    out = {}
    for w2 in range(max_w2 + 1):
        pieces = brst.pieces(w2)
        ranks = {}
        for c, src in sorted(pieces.items()):
            dst = pieces.get(c + 1, [])
            cols = brst._d0_columns(src, dst)
            ranks[c] = matrix_rank(cols, len(dst), brst.field)
            out[(w2, c)] = len(src) - ranks[c] - ranks.get(c - 1, 0)
    return out


@pytest.mark.parametrize("preset", preset_names())
def test_certified_cohomology_matches_exact_ranks(preset):
    brst, _ = make_brst(preset)
    assert brst.cohomology_dims(6) == _exact_dims(brst, 6)


@pytest.mark.parametrize("preset", ["sl3-subregular-cartan", "osp1_4-regular"])
def test_certified_cohomology_matches_exact_ranks_over_q(preset):
    brst = build_complex(build_preset(preset), QQ, Fraction(7, 2))
    assert brst.cohomology_dims(6) == _exact_dims(brst, 6)


def _h0_by_transposed_columns(brst, w2):
    """Kernel of d_(0) on the charge-zero piece, from the rows of the
    transposed columns of d_(0) into charge one."""
    pieces = brst.pieces(w2)
    src, dst = pieces.get(0, []), pieces.get(1, [])
    rows = [{} for _ in dst]
    for j, col in enumerate(brst._d0_columns(src, dst)):
        for i, c in col.items():
            rows[i][j] = c
    return [{key: c for key, c in zip(src, v) if c}
            for v in nullspace(rows, len(src), brst.field)]


@pytest.mark.parametrize("preset, level", [
    *((p, "symbolic") for p in preset_names()),
    ("sl3-subregular-cartan", Fraction(7, 2)),
    ("osp1_4-regular", Fraction(7, 2))], ids=str)
def test_h0_basis_matches_transposed_columns(preset, level):
    """h0_basis reads d_(0) through image_rows, in _state_key row order;
    the reduced kernel basis is that of the columns' transpose."""
    grading = build_preset(preset)
    brst = (build_complex(grading, F, F.gen) if level == "symbolic"
            else build_complex(grading, QQ, level))
    for w2 in range(7):
        assert brst.h0_basis(w2) == _h0_by_transposed_columns(brst, w2), w2


def _count_exact_ranks(monkeypatch):
    calls = []

    def counted(rows, ncols, field):
        calls.append(ncols)
        return matrix_rank(rows, ncols, field)

    monkeypatch.setattr(walgebras, "matrix_rank", counted)
    return calls


def test_uncertified_weights_fall_back_to_exact_ranks(monkeypatch):
    """A mod_row undefined at every k0, or one that drops every rank to 0,
    leaves weights the certificate cannot vouch for; those reach
    matrix_rank, one call per charge, and the dims are the exact ones."""
    brst, _ = make_brst("sl3-subregular-cartan")
    want = _exact_dims(brst, 6)
    charges = {w2: sorted(brst.pieces(w2)) for w2 in range(7)}
    calls = _count_exact_ranks(monkeypatch)
    monkeypatch.setattr(RationalFunctionField, "mod_row",
                        lambda self, row, k0: None)
    assert brst.cohomology_dims(6) == want
    assert len(calls) == sum(map(len, charges.values()))
    # rank 0 mod P everywhere: H^c(k0, P) = dim C^c, so only a weight with
    # no charge but 0 certifies
    calls.clear()
    monkeypatch.setattr(RationalFunctionField, "mod_row",
                        lambda self, row, k0: {})
    assert brst.cohomology_dims(6) == want
    fell_back = [w2 for w2, cs in charges.items() if cs != [0]]
    assert 0 < len(fell_back) < 7
    assert len(calls) == sum(len(charges[w2]) for w2 in fell_back)


def test_an_unlucky_k0_is_retried_before_exact_ranks(monkeypatch):
    brst, _ = make_brst("sl3-subregular-cartan")
    calls = _count_exact_ranks(monkeypatch)
    first, real = walgebras._K0[0], RationalFunctionField.mod_row
    monkeypatch.setattr(RationalFunctionField, "mod_row",
                        lambda self, row, k0: {}
                        if k0 == first else real(self, row, k0))
    assert brst.cohomology_dims(6) == _exact_dims(brst, 6)
    assert calls == []


def test_d0_columns_are_built_once_per_weight(monkeypatch):
    """Every level cohomology_dims tries ranks the same columns: with no
    k0 defined, each weight still builds one d_(0) map per charge."""
    brst, _ = make_brst("sl3-subregular-cartan")
    n_maps = sum(len(brst.pieces(w2)) for w2 in range(7))
    calls, columns = [], walgebras.BRSTComplex._d0_columns

    def counted(self, src, dst):
        calls.append(len(src))
        return columns(self, src, dst)

    monkeypatch.setattr(walgebras.BRSTComplex, "_d0_columns", counted)
    monkeypatch.setattr(RationalFunctionField, "mod_row",
                        lambda self, row, k0: None)
    assert brst.cohomology_dims(6) == _exact_dims(brst, 6)
    assert len(calls) == n_maps + n_maps  # cohomology_dims, then _exact_dims


def test_sugawara_virasoro_sl3_subregular():
    """L on the nonabelian g_0 = sl_2 + center is Virasoro; all currents
    are primary of weight one."""
    ctx = preset_context("sl3-subregular")
    L = sugawara(ctx)
    br = bracket(L, L)
    assert br[0] == derive(L)
    assert br[1] == L.scale_fraction(2)
    assert 2 not in br
    c_over_2 = br[3]
    assert list(c_over_2.terms) == [((), None)]
    # c = 3(k+1)/(k+3) + 1 for the internal sl_2 at level k+1 plus one boson
    k = F.gen
    want = (F.lift(3) * (k + 1) / (k + 3) + F.one) / 2
    assert c_over_2.terms[((), None)] == want
    for b in ctx.g0:
        J = ctx.system.gen_field(ctx.current_of_basis[b])
        brj = bracket(L, J)
        assert brj == {0: derive(J), 1: J}, b


# ---------------------------------------------------------------------------
# Miura


def test_miura_vacuum_and_leading_terms():
    brst, (datum, grading, base, lf, ch) = make_brst("sl2-regular")
    ctx = preset_context("sl2-regular")
    vac = {((), brst.system.vacuum_tag()): F.one}
    assert miura_project(brst, vac, ctx) == {((), ctx.system.vacuum_tag()):
                                             F.one}
    with pytest.raises(NonZeroCharge):
        key = brst.pieces(2)[1][0]
        miura_project(brst, {key: F.one}, ctx)


def test_koszul_sorted_signs_odd_swaps():
    """Sorting a word costs -1 per pair of odd letters it swaps; even
    letters move freely."""
    gens = [SimpleNamespace(parity=p) for p in (1, 0, 1, 1)]
    assert koszul_sorted([(2, -1), (0, -1)], gens) == \
        (((0, -1), (2, -1)), -1)
    assert koszul_sorted([(2, -1), (1, -1), (0, -1)], gens) == \
        (((0, -1), (1, -1), (2, -1)), -1)
    assert koszul_sorted([(3, -1), (2, -1), (0, -2)], gens)[1] == -1
    assert koszul_sorted([(0, -2), (3, -1), (2, -1)], gens)[1] == -1
    assert koszul_sorted([(1, -1), (0, -1), (2, -1)], gens) == \
        (((0, -1), (1, -1), (2, -1)), 1)
    assert koszul_sorted([(1, -1), (1, -2), (1, -1)], gens) == \
        (((1, -2), (1, -1), (1, -1)), 1)


def test_miura_images_in_kernel_sl2():
    brst, (datum, grading, base, lf, ch) = make_brst("sl2-regular")
    ctx = preset_context("sl2-regular")
    ops = exponential_screenings(ctx)
    char = expected_character(datum, grading, 8)
    for w2 in range(0, 9, 2):
        h0 = brst.h0_basis(w2)
        rep = kernel_basis(ctx, ops, w2, expected=char[w2])
        assert len(h0) == rep.kernel_dim
        kvecs = [field_state(f) for f in rep.basis_fields]
        for cls in h0:
            img = miura_project(brst, cls, ctx)
            assert solve_in_span(kvecs, img, F) is not None, w2


def _miura_by_span_solve(preset, level, maxw2, project):
    """verify_miura's witnesses and scalars recomputed by solving each
    projected H0 class in the span of the symbolic kernel basis."""
    ctx = preset_context(preset, level)
    field = ctx.field
    brst = build_complex(ctx.grading, field, ctx.level)
    _, ops = choose_screenings(ctx)
    char = expected_character(ctx.datum, ctx.grading, maxw2)
    witness, scalars = [], {}
    for w2 in range(maxw2 + 1):
        h0 = brst.h0_basis(w2)
        rep = kernel_basis(ctx, ops, w2, expected=char[w2])
        if len(h0) != rep.kernel_dim:
            witness.append({"check": "dim", "weight2": w2})
            continue
        kvecs = [field_state(f) for f in rep.basis_fields]
        for cls in h0:
            sol = solve_in_span(kvecs, project(brst, cls, ctx), field)
            if sol is None:
                witness.append({"check": "membership", "weight2": w2})
            elif len(kvecs) == 1:
                scalars[str(w2)] = str(sol[0])
    return witness, scalars


def _off_kernel_projection(brst, cls, ctx):
    """The Miura image plus the basis monomial J_(-2)|0> for the first
    current at doubled weight 4, which no screening kernel contains."""
    img = miura_project(brst, cls, ctx)
    if brst.system.state_depth2(cls) == 4:
        key = (((0, -2),), ctx.system.vacuum_tag())
        img[key] = img.get(key, ctx.field.zero) + ctx.field.one
    return {key: c for key, c in img.items() if c}


@pytest.mark.parametrize("preset, level, maxw2", [
    ("sl2-regular", "symbolic", 8),
    ("osp1_2-regular", "symbolic", 8),
    ("osp1_4-regular", "symbolic", 8),
    ("sl3-subregular", "symbolic", 6),
    ("sl3-subregular-cartan", "symbolic", 6),
    ("osp1_6-regular", Fraction(7, 2), 6)])
def test_verify_miura_matches_span_solve(preset, level, maxw2, monkeypatch):
    """Membership by annihilation and the scalar read off the image's last
    word give what solve_in_span over the kernel basis gives: the same
    witnesses and scalars, on the true projection and on one pushed off
    the kernel at doubled weight 4."""
    args = SimpleNamespace(preset=preset, level=level, max_weight=maxw2)
    doc = verify_miura(args, None)
    assert doc["status"] == "pass", doc["witness"]
    want = _miura_by_span_solve(preset, level, maxw2, miura_project)
    assert (doc["witness"], doc["scalars_vs_kernel_basis"]) == want
    assert doc["scalars_vs_kernel_basis"]
    monkeypatch.setattr(verify_module, "miura_project",
                        _off_kernel_projection)
    doc = verify_miura(args, None)
    want = _miura_by_span_solve(preset, level, maxw2,
                                _off_kernel_projection)
    assert (doc["witness"], doc["scalars_vs_kernel_basis"]) == want
    assert {"check": "membership", "weight2": 4} in doc["witness"]


# ---------------------------------------------------------------------------
# the odd-field models


def test_wbn_closed_form_n1():
    m = WBnModel(1)
    sys = m.system
    b = sys.gen_field(m.bgen[0])
    psi = sys.gen_field(m.psi)
    want0 = normal_order(b, b) + derive(b).scale(m.gamma) + \
        normal_order(derive(psi), psi)
    assert m.brackets[0] == want0
    assert 1 not in m.brackets
    g2 = m.gamma * m.gamma
    assert m.brackets[2].terms == {((), None): m.field.one - g2 - g2}


def test_wbn_top_coefficient_and_c2():
    for n in (1, 2, 3):
        m = WBnModel(n)  # TopCoefficientMismatch would raise here
        assert m.check_c2_congruences() == []
        # gamma_n as a polynomial identity in the coupling
        acc = m.field.one
        for j in range(1, n + 1):
            acc = acc * (m.field.one -
                         m.field.lift(2 * j * (2 * j - 1)) * m.gamma * m.gamma)
        assert m.gamma_consts[n] == acc


def test_wbn_screenings():
    for n in (1, 2, 3):
        model, fails = verify_wbn_screening(n)
        assert fails == [], n


def test_wbn_kernel_dims_match_regular_reduction():
    """The joint kernel of the n screening charges in the boson-fermion
    model has the graded dimensions of the regular reduction of the
    rank-n orthosymplectic algebra: even generators of weights
    2, 4, ..., 2n and one odd generator of weight n + 1/2."""
    from vertexscreen.screening import character_of_generators
    for n, gens in ((1, [(3, 1), (4, 0)]), (2, [(4, 0), (5, 1), (8, 0)])):
        model, fails = verify_wbn_screening(n)
        assert fails == []
        field = model.field
        s = field.gen
        mod = model.system
        char = character_of_generators(gens, 6)
        screenings = []
        for i in range(1, n + 1):
            coords = [field.zero] * n
            if i < n:
                coords[i - 1] = s
                coords[i] = -s
            else:
                coords[n - 1] = s
            word = ((model.psi, 0),) if i == n else ()
            screenings.append(partial(mod.word_coeff_state, word,
                                      mod.momentum_tag(coords), -1))
        for w2 in range(0, 7):
            basis = graded_basis(mod, w2)
            rows = image_rows(screenings, basis, field)
            assert len(nullspace(rows, len(basis), field)) == char[w2], \
                (n, w2)


def test_w2n_gram_matrix():
    for n in (2, 3):
        m = W2nModel(n)
        k = m.k
        kn = k + m.field.lift(n)
        pos = m.system.current_pos
        for i in range(1, n):
            assert m.gram[pos[m.agen[i - 1]]][pos[m.agen[i - 1]]] == kn * 2
        for i in range(1, n - 1):
            assert m.gram[pos[m.agen[i - 1]]][pos[m.agen[i]]] == -kn
        assert m.gram[pos[m.agen[0]]][pos[m.psig]] == -kn
        assert m.gram[pos[m.psig]][pos[m.psig]] == m.field.one
        assert m.gram[pos[m.psig]][pos[m.xig]] == m.field.one
        assert m.gram[pos[m.xig]][pos[m.xig]] == m.field.zero
        assert m.gram[pos[m.agen[0]]][pos[m.xig]] == m.field.zero


def test_w2n_f_forms_and_screenings():
    for n in (2, 3):
        m = W2nModel(n)
        assert m.rewritten_f() == m.F
        assert verify_fs(m) == []
        assert bracket(m.E, m.E) == {}


def test_w2n_f_printed_form_n2():
    m = W2nModel(2)
    k = m.k
    sys = m.system
    psi = sys.gen_field(m.psig)
    a1 = sys.gen_field(m.agen[0])
    em = m.exp_field({m.xig: -m.field.one})
    want = normal_order(derive(psi), em).scale(-(k + 1)) - \
        normal_order(psi + a1, normal_order(psi, em))
    assert m.F == want


def test_wakimoto_brackets_and_images():
    ctx = preset_context("sl3-subregular")
    wm = WakimotoMap(3)
    checked, fails = wm.verify_brackets()
    assert checked == 16
    assert fails == []
    m = wm.model
    names = {ctx.datum.basis_name(b): b for b in wm.g0}
    k = m.field.gen
    want_h1 = m.system.gen_field(m.xig).scale(k + 1) + \
        m.system.gen_field(m.psig).scale_fraction(2) + \
        m.system.gen_field(m.agen[0])
    assert wm.image_of_basis[names["h1"]] == want_h1
    assert wm.image_of_basis[names["a1"]] == m.E


def test_wakimoto_h_i_to_a_i_for_higher_rank():
    ctx = preset_context("sl4-subregular")
    wm = WakimotoMap(4)
    names = {ctx.datum.basis_name(b): b for b in wm.g0}
    m = wm.model
    assert wm.image_of_basis[names["h3"]] == m.system.gen_field(m.agen[2])


def _transport(ctx, wm, state):
    """A current-only vacuum state of ctx through the substitution: each
    letter g_(m), read from the right, acts as the (-m - 1)st coefficient
    of the image of g."""
    basis_of_gen = {gidx: b for b, gidx in ctx.current_of_basis.items()}
    field = wm.field
    target_vac = wm.model.system.vacuum_tag()
    acc = {}
    for (word, tag), c in state.items():
        assert tag[0] == "m"
        img = {((), target_vac): c}
        for (g, m) in reversed(word):
            fe = wm.image_of_basis[basis_of_gen[g]]
            img = apply_field_coeff(fe, -m - 1, img)
        state_acc(acc, img, field.one, field)
    return trimmed(acc)


def test_wakimoto_transports_f_field():
    """The substitution is multiplicative: the composite field F on the
    current side maps onto the lattice-side F."""
    ctx = preset_context("sl3-subregular")
    wm = WakimotoMap(3)
    m = wm.model
    k = m.field.gen
    n = 3
    d = ctx.datum
    names = {d.basis_name(b): b for b in ctx.g0}
    cur = {b: ctx.system.gen_field(ctx.current_of_basis[b]) for b in ctx.g0}
    fneg = cur[names["-a1"]]
    b2 = cur[names["h1"]] + cur[names["h2"]]
    f_sl = derive(fneg).scale(k + 2) + normal_order(b2, fneg)
    got = _transport(ctx, wm, field_state(f_sl))
    want = field_state(m.F)
    assert got == want


def test_wakimoto_kernel_transport():
    """Ker of the class screening transports onto Ker of the matching
    lattice exponential, and lands inside all three lattice kernels."""
    ctx = preset_context("sl3-subregular")
    wm = WakimotoMap(3)
    m = wm.model
    field = m.field
    ops = generic_screenings(ctx)
    char = expected_character(ctx.datum, ctx.grading, 4)
    momenta = m.screening_momenta()
    a2 = partial(m.system.word_coeff_state, (), momenta[1], -1)
    for w2 in (0, 2, 4):
        basis = graded_basis(ctx.system, w2)
        rep = kernel_basis(ctx, ops, w2, expected=char[w2])
        rows = image_rows([lambda st: a2(_transport(ctx, wm, st))], basis,
                          field)
        assert len(nullspace(rows, len(basis), field)) == rep.kernel_dim
        for fe in rep.basis_fields:
            st = _transport(ctx, wm, field_state(fe))
            for mu in momenta:
                assert m.system.word_coeff_state((), mu, -1, st) == {}
