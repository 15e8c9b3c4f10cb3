import json
import random
from fractions import Fraction

import pytest

from vertexscreen.superdata import (DatumError, DegreeMismatch,
                                    NotGoodGrading, RestrictedBase,
                                    _datum_from_matrices, build_osp,
                                    build_sl, datum_from_json, datum_to_json,
                                    good_grading)


def test_build_sl2_structure_constants():
    d = build_sl(2)
    e = d.root_index(0) if d.roots[0].name == "a1" else d.root_index(1)
    f = d.neg_index(e)
    h = 0
    assert d.bracket(h, e) == {e: Fraction(2)}
    assert d.bracket(h, f) == {f: Fraction(-2)}
    assert d.bracket(e, f) == {h: Fraction(1)}
    assert d.theta_norm() == 2
    assert d.dual_coxeter() == 2


def test_sl_invariants_and_h_dual():
    for n in (2, 3, 4):
        d = build_sl(n)
        d.check_invariants()
        assert d.dual_coxeter() == n


def test_osp_invariants_and_h_dual():
    for n in (1, 2):
        d = build_osp(n)
        d.check_invariants()
        assert d.dual_coxeter() == Fraction(2 * n + 1, 2)


def test_osp1_parities():
    d = build_osp(1)
    by_name = {r.name: r for r in d.roots}
    assert by_name["b1"].parity == 1
    assert by_name["2b1"].parity == 0
    # even part is sl_2: three even basis elements
    assert sum(1 for p in d.parity if p == 0) == 3


def test_root_matrix_must_be_an_ad_eigenvector():
    """sl_2 with E12 + E21 in place of E12: the basis is independent and
    closed under the bracket, but [h, E12 + E21] = 2 E12 - 2 E21 is no
    multiple of E12 + E21."""
    one = Fraction(1)
    cartan = [{(0, 0): one, (1, 1): -one}]
    roots = [({(0, 1): one, (1, 0): one}, 0, True),
             ({(1, 0): one}, 0, False)]
    with pytest.raises(DatumError, match="not an ad-eigenvector"):
        _datum_from_matrices(1, cartan, roots, [0, 0], "a", "sl2")
    roots[0] = ({(0, 1): one}, 0, True)
    assert datum_to_json(_datum_from_matrices(1, cartan, roots, [0, 0], "a",
                                              "sl2")) == \
        datum_to_json(build_sl(2))


def test_rejects_small_rank():
    with pytest.raises(DatumError):
        build_sl(1)
    with pytest.raises(DatumError):
        build_osp(0)


def test_good_grading_rejects_degree_mismatch():
    d = build_sl(2)
    with pytest.raises(DegreeMismatch):
        good_grading(d, {"a1": 0}, ["a1"])


def test_good_grading_rejects_bad_rank_condition():
    d = build_sl(3)
    # f = e_{-a2} with labels (1, 1): e_{a1} sits in degree 1/2 and
    # commutes with f, so ad f is not injective there
    with pytest.raises(NotGoodGrading):
        good_grading(d, {"a1": 1, "a2": 1}, ["a2"])


def test_sl3_subregular_base_and_classes():
    d = build_sl(3)
    g = good_grading(d, {"a1": 0, "a2": 2}, ["a2"])
    rb = g.base
    desc = rb.describe()
    assert set(desc["pi_half"]) == {"a2", "a1+a2"}
    assert desc["classes"] == [["a2", "a1+a2"]]
    assert desc["degree_half"] == []
    # g_0 = sl_2 + center, g_{1/2} = 0
    assert len(g.g0_indices()) == 4
    assert g.delta_half_indices() == []


def test_sl4_subregular_classes():
    d = build_sl(4)
    g = good_grading(d, {"a1": 0, "a2": 2, "a3": 2}, ["a2", "a3"])
    rb = g.base
    classes = {tuple(sorted(c)) for c in rb.describe()["classes"]}
    assert classes == {("a1+a2", "a2"), ("a3",)}


def test_cartan_case_classes_singletons():
    d = build_sl(2)
    g = good_grading(d, {"a1": 2}, ["a1"])
    rb = g.base
    assert rb.describe()["classes"] == [["a1"]]
    assert g.g0_is_cartan()


def test_osp_regular_pi_split():
    d = build_osp(2)
    g = good_grading(d, {"b1": 2, "b2": 1}, ["b1", "2b2"])
    rb = g.base
    desc = rb.describe()
    assert desc["degree_half"] == ["b2"]
    assert desc["degree_one"] == ["b1"]
    assert g.g0_is_cartan()


def test_restricted_base_order_independent():
    d = build_sl(3)
    g = good_grading(d, {"a1": 0, "a2": 2}, ["a2"])
    a = g.base
    b = RestrictedBase(g)
    assert a.describe() == b.describe()  # idempotent and deterministic
    assert set(a.pi_half) == set(b.pi_half)


def test_restricted_base_survives_root_permutation():
    """Loading the same datum with permuted root order changes nothing
    about the computed sets."""
    d = build_sl(3)
    doc = datum_to_json(d)
    nroots = len(doc["roots"])
    rng = random.Random(3)
    perm = list(range(nroots))
    rng.shuffle(perm)
    inv = {old: new for new, old in enumerate(perm)}

    def remap(idx):
        return idx if idx < d.rank else d.rank + inv[idx - d.rank]

    doc2 = dict(doc)
    doc2["roots"] = [doc["roots"][p] for p in perm]
    doc2["structure_constants"] = [
        [remap(i), remap(j), remap(l), c]
        for i, j, l, c in doc["structure_constants"]]
    n = d.nbasis
    form = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            form[remap(i)][remap(j)] = doc["form"][i][j]
    doc2["form"] = form
    d2 = datum_from_json(doc2)
    # label the permuted datum through root coordinates, not names
    coords_of = {r.name: r.coords for r in d.roots}
    by_coords2 = {r.coords: p for p, r in enumerate(d2.roots)}
    labels2 = {by_coords2[coords_of["a1"]]: 0, by_coords2[coords_of["a2"]]: 2}
    g1 = good_grading(d, {"a1": 0, "a2": 2}, ["a2"])
    g2 = good_grading(d2, labels2, [by_coords2[coords_of["a2"]]])
    b1 = g1.base
    b2 = g2.base

    def coord_classes(d_, rb):
        return {frozenset(d_.root_at(b).coords for b in cls)
                for cls in rb.classes}

    assert coord_classes(d, b1) == coord_classes(d2, b2)
    assert {d.root_at(b).coords for b in b1.pi_half} == \
        {d2.root_at(b).coords for b in b2.pi_half}


def test_tau_form_cartan_case():
    d = build_sl(2)
    g = good_grading(d, {"a1": 2}, ["a1"])
    lf = g.levelform
    # tau(h|h) = (k + 2)(h|h): constant part 2 h_dual (h|h)/2 = 4
    assert lf.tau_pair(0, 0) == (Fraction(4), Fraction(2))
    assert lf.h_dual == 2


def test_tau_form_sl3_subregular_internal_level():
    d = build_sl(3)
    g = good_grading(d, {"a1": 0, "a2": 2}, ["a2"])
    lf = g.levelform
    ia1 = next(d.root_index(p) for p, r in enumerate(d.roots)
               if r.name == "a1")
    const, lin = lf.tau_pair(ia1, d.neg_index(ia1))
    # level of the internal sl_2 is k + n - 2 = k + 1
    assert (const, lin) == (Fraction(1), Fraction(1))


def test_chi_values():
    d = build_sl(2)
    g = good_grading(d, {"a1": 2}, ["a1"])
    c = g.chi
    ia = next(d.root_index(p) for p, r in enumerate(d.roots)
              if r.name == "a1")
    assert c.of_index(ia) == 1
    assert c.of_index(0) == 0  # Cartan
    o = build_osp(1)
    go = good_grading(o, {"b1": 1}, ["2b1"])
    co = go.chi
    ib = next(o.root_index(p) for p, r in enumerate(o.roots)
              if r.name == "b1")
    # chi([e_b, e_b]) is nonzero for the odd short root
    assert co.of_comb(o.bracket(ib, ib)) != 0


def test_centralizer_weights():
    d = build_sl(3)
    g = good_grading(d, {"a1": 0, "a2": 2}, ["a2"])
    weights = sorted(2 - j2 for _, j2, _ in g.centralizer_generators())
    assert weights == [2, 2, 4, 4]
    gc = good_grading(d, {"a1": 1, "a2": 1}, ["a1+a2"])
    weights = sorted(2 - j2 for _, j2, _ in gc.centralizer_generators())
    assert weights == [2, 3, 3, 4]
    o = build_osp(2)
    go = good_grading(o, {"b1": 2, "b2": 1}, ["b1", "2b2"])
    ws = sorted((2 - j2, p) for _, j2, p in go.centralizer_generators())
    assert ws == [(4, 0), (5, 1), (8, 0)]


def test_json_round_trip():
    d = build_sl(3)
    doc = datum_to_json(d)
    text = json.dumps(doc)
    d2 = datum_from_json(json.loads(text))
    assert d2.rank == d.rank
    assert d2.sc == d.sc
    assert d2.form == d.form
    d2.check_invariants()
    # the loaded datum supports the same grading machinery
    names = {r.name: p for p, r in enumerate(d2.roots)}
    g = good_grading(d2, {d2.roots[p].name: 2 for p in d2.simple},
                     [d2.roots[p].name for p in d2.simple])
    assert g.g0_is_cartan()


def test_json_rejects_broken_constants():
    d = build_sl(2)
    doc = datum_to_json(d)
    doc["structure_constants"][0][3] = "17/3"
    with pytest.raises(DatumError):
        datum_from_json(doc)


def _sl2_doc_with(path, value):
    """datum_to_json(build_sl(2)) with the entry at path (keys and list
    positions) replaced by value."""
    doc = datum_to_json(build_sl(2))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# (entry, JSON float or bool, the name the error gives the entry); at
# int() and Fraction() the floats read as 0, 1, 0 and a binary fraction
FLOAT_ENTRIES = [
    (("structure_constants", 0, 0), 0.9, "structure_constants[0] index"),
    (("rank",), 1.7, "rank"),
    (("roots", 0, "parity"), 0.6, "roots[0] parity"),
    (("form", 0, 0), 2.1, "form[0][0]"),
    (("form", 1, 1), 2.0, "form[1][1]"),
    (("roots", 1, "coords", 0), -2.0, "roots[1] coordinate"),
    (("structure_constants", 0, 3), 2.0, "structure_constants[0]"),
    (("roots", 0, "parity"), False, "roots[0] parity"),
    (("structure_constants", 0, 3), True, "structure_constants[0]"),
]


@pytest.mark.parametrize("path,value,name", FLOAT_ENTRIES)
def test_json_refuses_floats_and_bools(path, value, name):
    """A JSON float or bool is refused where an index, the rank, a parity
    or a rational is read, naming the entry, never truncated or read as
    its binary value."""
    doc = _sl2_doc_with(path, value)
    with pytest.raises(DatumError, match=r"^%s must be an int" %
                       name.replace("[", r"\[").replace("]", r"\]")):
        datum_from_json(json.loads(json.dumps(doc)))


def test_json_reads_ints_and_fraction_strings():
    """Ints and "p/q" strings stay accepted wherever a rational is read."""
    d = build_sl(2)
    doc = datum_to_json(d)
    doc["form"] = [[int(Fraction(x)) for x in row] for row in doc["form"]]
    doc["roots"][0]["coords"] = ["4/2"]
    doc["structure_constants"] = [[i, j, l, int(Fraction(c))]
                                  for i, j, l, c in doc["structure_constants"]]
    d2 = datum_from_json(json.loads(json.dumps(doc)))
    assert (d2.rank, d2.sc, d2.form) == (d.rank, d.sc, d.form)
    assert [r.coords for r in d2.roots] == [r.coords for r in d.roots]


@pytest.mark.parametrize("value", ["false", 0, 1, None, "true"])
def test_json_positive_flag_is_a_bool(value):
    """A root's "positive" is a JSON bool or absent: a string or an int is
    refused naming the entry, not read through bool()."""
    doc = _sl2_doc_with(("roots", 1, "positive"), value)
    with pytest.raises(DatumError,
                       match=r"^roots\[1\] positive must be true or false"):
        datum_from_json(json.loads(json.dumps(doc)))


def test_json_positive_flag_may_be_absent():
    d = build_sl(2)
    doc = datum_to_json(d)
    for spec in doc["roots"]:
        del spec["positive"]
    d2 = datum_from_json(json.loads(json.dumps(doc)))
    assert [r.positive for r in d2.roots] == [r.positive for r in d.roots]
