"""Named verification suites over seeded random samples.

All randomness is drawn from a caller-supplied ``random.Random`` so every
run is reproducible from its seed.  Each suite returns a JSON-ready dict
with "status": "pass"/"fail" and a first-failure witness when applicable.
"""

from .errors import InputError
from .presets import build_preset, level_field, preset_context
from .scalars import QQ
from .screening import choose_screenings, expected_character, kernel_basis
from .vertexcalc import (
    apply_field_coeff, bracket, derive, field_to_json, flat_table, graded_basis,
    lambda_shift_skew, normal_order, state_acc, state_field, trimmed, _binom,
    _fact,
)
from .walgebras import (W2nModel, WakimotoMap, WBnModel, build_complex,
                        miura_project, verify_fs, verify_wbn_screening)


# ---------------------------------------------------------------------------
# sampling


def random_homogeneous_field(module, rng, weight2):
    """A random parity-homogeneous field of the given doubled weight."""
    cands = graded_basis(module, weight2)
    if not cands:
        return None
    want = module.mono_parity(*cands[rng.randrange(len(cands))])
    cands = [key for key in cands if module.mono_parity(*key) == want]
    nterms = min(len(cands), 1 + rng.randrange(2))
    st = {}
    for key in rng.sample(cands, nterms):
        st[key] = module.field.lift(rng.randint(1, 3) * rng.choice((1, -1)))
    return state_field(st, module)


def _sample_triple(module, rng, wmax2):
    out = []
    for _ in range(3):
        for _ in range(8):
            w2 = 1 + rng.randrange(wmax2)
            fe = random_homogeneous_field(module, rng, w2)
            if fe is not None and not fe.is_zero():
                out.append(fe)
                break
        else:
            return None
    return out


# ---------------------------------------------------------------------------
# the four bracket axioms


class _Brackets:
    """bracket(a, b) once per pair: the lambda-brackets one verify_wick
    trial shares among its checks.  Keyed on operand ids; each entry holds
    its operands, so no id is reused while the table lives."""

    def __init__(self):
        self._entries = {}

    def __call__(self, a, b):
        key = (id(a), id(b))
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = (a, b, bracket(a, b))
        return entry[2]


def _table_acc(table, key, f, coeff):
    """Add coeff * f into the flat table, under the index tuple key."""
    state_acc(table, {key + wm: c for wm, c in f.terms.items()}, coeff,
              f.system.field)


def check_skew(a, b, br):
    lp, direct = br(a, b), br(b, a)
    want = lambda_shift_skew(lp, a.parity(), b.parity(), a.system)
    return flat_table(direct) == flat_table(want)


def _double_left(br, table, a, b, c, sign, swap):
    """Add sign * [a_l [b_m c]] = sign * sum F_ij l^i m^j into table, under
    (i, j), or (j, i) when swap."""
    field = a.system.field
    for j, cj in br(b, c).items():
        for i, f in br(a, cj).items():
            coeff = field.lift(QQ.quo(sign, _fact(i) * _fact(j)))
            _table_acc(table, (j, i) if swap else (i, j), f, coeff)


def _jacobi_rhs(br, table, a, b, c):
    """Add [[a_l b]_{l+m} c] = sum G_ij l^i m^j into table, under (i, j)."""
    field = a.system.field
    for n, fn in br(a, b).items():
        for j, f in br(fn, c).items():
            for t in range(j + 1):
                coeff = QQ.quo(_binom(j, t), _fact(n) * _fact(j))
                _table_acc(table, (n + t, j - t), f, field.lift(coeff))


def check_jacobi(a, b, c, br):
    lhs, rhs = {}, {}
    _double_left(br, lhs, a, b, c, 1, False)
    _double_left(br, lhs, b, a, c, -(-1) ** (a.parity() * b.parity()), True)
    _jacobi_rhs(br, rhs, a, b, c)
    return trimmed(lhs) == trimmed(rhs)


def check_wick(a, b, c, br):
    """[a_l :bc:] = :[a_l b]c: + (-1)^{p(a)p(b)} :b [a_l c]: + integral term."""
    field = a.system.field
    lhs = br(a, normal_order(b, c))
    ab = br(a, b)
    ac = br(a, c)
    sign = field.lift((-1) ** (a.parity() * b.parity()))
    rhs = {}
    for n, f in ab.items():
        _table_acc(rhs, (n,), normal_order(f, c), field.one)
    for n, f in ac.items():
        _table_acc(rhs, (n,), normal_order(b, f), sign)
    # integral_0^l [[a_l b]_m c] dm  =  sum_{n,j} X_nj l^{n+j+1} / (n! j! (j+1))
    for n, fn in ab.items():
        for j, f in br(fn, c).items():
            m = n + j + 1
            coeff = QQ.quo(_fact(m), _fact(n) * _fact(j) * (j + 1))
            _table_acc(rhs, (m,), f, field.lift(coeff))
    return flat_table(lhs) == trimmed(rhs)


def check_commutator(a, b, cases, br):
    """The first (v, m, n) of cases where [a_(m), b_(n)] v differs from
    sum_j C(m, j) (a_(j) b)_(m+n-j) v, or None when every case holds.

    The bracket depends only on the pair, so it is computed once, by br
    (vertexcalc.bracket or a _Brackets table), as in the other checks."""
    field = a.system.field
    sign = field.lift(-(-1) ** (a.parity() * b.parity()))
    ab = br(a, b)
    for v, m, n in cases:
        diff = apply_field_coeff(a, -m - 1, apply_field_coeff(b, -n - 1, v))
        parts = [(b, -n - 1, apply_field_coeff(a, -m - 1, v), sign)]
        parts += [(f, -(m + n - j) - 1, v, field.lift(-_binom(m, j)))
                  for j, f in ab.items() if _binom(m, j)]
        for f, J, state, coeff in parts:
            for (word, mom), c in f.terms.items():
                a.system.word_coeff_acc(diff, word, mom, J, state, c * coeff)
        if any(diff.values()):
            return v, m, n
    return None


WICK_PRESETS = ("sl2-regular", "osp1_2-regular", "osp1_4-regular",
                "sl3-subregular", "sl3-subregular-cartan")


def verify_wick(args, rng):
    """Bracket-axiom suite on seeded random composite fields, of doubled
    weight at most --max-weight, capped at 6."""
    trials = args.trials
    wmax2 = min(args.max_weight, 6)
    if wmax2 < 1:
        raise InputError("verify wick: argument --max-weight: must be an "
                         "integer >= 1, not %d" % wmax2)
    total = 0
    failures = []
    per_preset = {}
    for preset in WICK_PRESETS:
        ctx = preset_context(preset)
        module = ctx.system
        count = 0
        for t in range(trials):
            triple = _sample_triple(module, rng, wmax2)
            if triple is None:
                continue
            a, b, c = triple
            count += 3
            br = _Brackets()
            ok = check_skew(a, b, br) and check_jacobi(a, b, c, br) and \
                check_wick(a, b, c, br)
            if ok:
                v = {key: ctx.field.one
                     for key in graded_basis(module, rng.randrange(0, 5))}
                m, n = rng.randint(-2, 2), rng.randint(-2, 2)
                ok = check_commutator(a, b, [(v, m, n)], br) is None
            if not ok:
                failures.append({"preset": preset, "trial": t,
                                 "a": field_to_json(a), "b": field_to_json(b),
                                 "c": field_to_json(c)})
                break
        per_preset[preset] = count
        total += count
    return {
        "status": "pass" if not failures else "fail",
        "fields_sampled": total,
        "per_preset": per_preset,
        "weights_tested": list(range(1, wmax2 + 1)),
        "witness": failures[:1],
    }


def verify_brst(args, rng):
    preset = args.preset or "sl2-regular"
    maxw2 = args.max_weight
    grading = build_preset(preset)
    field, level = level_field(args.level)
    brst = build_complex(grading, field, level)
    witness = []
    # d0 squares to zero on every monomial
    for w2 in range(0, maxw2 + 1):
        for key in graded_basis(brst.system, w2):
            dd = brst.d0_state(brst.d0_state({key: field.one}))
            if dd:
                witness.append({"check": "d0^2", "weight2": w2})
                break
    dims = brst.cohomology_dims(maxw2)
    char = expected_character(grading.datum, grading, maxw2)
    h0 = [dims.get((w2, 0), 0) for w2 in range(0, maxw2 + 1)]
    expect = [char[w2] for w2 in range(0, maxw2 + 1)]
    nonzero = {str(kk): v for kk, v in dims.items() if kk[1] != 0 and v != 0}
    if h0 != expect:
        witness.append({"check": "H0 vs character", "got": h0,
                        "want": expect})
    if nonzero:
        witness.append({"check": "H^(n!=0) = 0", "got": nonzero})
    return {
        "status": "pass" if not witness else "fail",
        "preset": preset,
        "h0_dims": h0,
        "character": expect,
        "weights_tested": list(range(0, maxw2 + 1)),
        "witness": witness,
    }


def verify_wbn(args, rng):
    n = args.n
    witness = []
    model = WBnModel(n)
    bad = model.check_c2_congruences()
    if bad:
        witness.append({"check": "c2-congruence",
                        "which": [b[0] for b in bad]})
    _, fails = verify_wbn_screening(n)
    if fails:
        witness.append({"check": "screening", "first": str(fails[0][0])})
    if n == 1:
        got = model.brackets
        b = model.system.gen_field(model.bgen[0])
        psi = model.system.gen_field(model.psi)
        want0 = normal_order(b, b) + derive(b).scale(model.gamma) + \
            normal_order(derive(psi), psi)
        if got.get(0) != want0:
            witness.append({"check": "n=1 closed form"})
    return {
        "status": "pass" if not witness else "fail",
        "n": n,
        "top_coefficient": str(model.gamma_consts[n]),
        "witness": witness,
    }


def verify_fs_suite(args, rng):
    witness = []
    for n in (2, args.n) if args.n != 2 else (2,):
        model = W2nModel(n)
        if model.rewritten_f() != model.F:
            witness.append({"check": "F forms agree", "n": n})
        fails = verify_fs(model)
        if fails:
            witness.append({"check": "screening", "n": n,
                            "first": fails[0][0] + "." + fails[0][1]})
    return {"status": "pass" if not witness else "fail",
            "n": args.n, "witness": witness}


def verify_wakimoto(args, rng):
    n = args.n
    wm = WakimotoMap(n)
    checked, fails = wm.verify_brackets()
    return {
        "status": "pass" if not fails else "fail",
        "n": n,
        "pairs_checked": checked,
        "witness": [{"pair": f[0]} for f in fails[:1]],
    }


def verify_miura(args, rng):
    preset = args.preset or "sl2-regular"
    maxw2 = args.max_weight
    ctx = preset_context(preset, args.level)
    field = ctx.field
    brst = build_complex(ctx.grading, field, ctx.level)
    _, ops = choose_screenings(ctx)
    witness = []
    scalars = {}
    for w2 in range(0, maxw2 + 1):
        h0 = brst.h0_basis(w2)
        rep = kernel_basis(ctx, ops, w2)
        if len(h0) != rep.kernel_dim:
            witness.append({"check": "dim", "weight2": w2})
            continue
        # the kernel basis spans the kernel: membership is annihilation
        for cls in h0:
            img = miura_project(brst, cls, ctx)
            if any(op.apply(img) for op in ops):
                witness.append({"check": "membership", "weight2": w2})
            elif rep.kernel_dim == 1:
                # the reduced kernel vector is 1 at its last word
                scalars[str(w2)] = str(img[max(img)] if img else field.zero)
    return {
        "status": "pass" if not witness else "fail",
        "preset": preset,
        "scalars_vs_kernel_basis": scalars,
        "weights_tested": list(range(0, maxw2 + 1)),
        "witness": witness,
    }
