"""Byte-for-byte regression of CLI reports against stored output.

Each kernel file under tests/golden holds the JSON that

    vertexscreen kernel --preset P --level L --max-weight W --out FILE

wrote before elimination over Q(k) became fraction-free, except the two
at level 7/2 on the exponential path (osp1_4-regular, sl3-regular),
written before e^{int mu} was expanded by recurrence; each verify and
info file holds what ``verify SUITE`` and ``info`` wrote before the
screening ambient and the BRST complex shared one table builder, except
the ``verify wbn --n 3`` and ``verify wick --trials 5`` reports (the
first carries the exact top coefficient of WB_3 as a string), written
before Q(k) arithmetic on integer polynomials skipped normalization.  The
two ``kernel-generic-*`` files hold what ``kernel --screenings generic``
wrote before the vertex calculus read each field's module off its
generator system and added states only through ``state_acc``; they cover
both generic screening constructions on whole graded pieces.
``kernel-sl4-subregular-symbolic-6.json``, the generic screenings of
sl4-subregular (both classes of degree one, chi(e_a) S^a_1) over Q(k),
holds what ``kernel`` wrote before each S^a_n on a current monomial was
stored and its translations summed by Horner's rule.
``kernel-osp1_6-regular-7_2-8.json``, the three exponential screenings of
WB_3 = W(osp(1|6)) at k = 7/2, holds what ``kernel`` wrote before the
e^{int mu} creation ladder was stored per monomial.
``verify-brst-sl3-subregular-cartan-symbolic-8.json`` and
``verify-brst-osp1_6-regular-symbolic-8.json`` hold what ``verify brst``
wrote while every BRST rank was still taken over Q(k), before
cohomology_dims certified its dimensions from ranks mod 2^61 - 1.
``verify-brst-sl3-subregular-cartan-symbolic-10.json`` holds what
``verify brst`` wrote to doubled weight 10 before the modular echelon
pivoted each column on its shortest row (the run took 13-18 s then and
5-7 s after, raw, on a shared 2-vCPU machine); every verify file also
records that its run tested each weight up to its --max-weight.
``verify-fs-n3.json``, ``verify-wakimoto-n3.json`` and
``verify-wakimoto-n4.json`` hold what ``verify fs --n 3`` and ``verify
wakimoto --n 3``/``--n 4`` wrote at commit 6e01298, before WakimotoMap
built its own grading and the unreachable checks of the W-algebra models
were deleted.
``kernel-osp1_4-regular-7_2-12.json``, ``kernel-sl4-subregular-7_2-8.json``
and ``verify-miura-osp1_6-regular-7_2-6.json``, the specialized kernels
of the benchmark and a Miura check over Q, hold what ``kernel`` and
``verify miura`` wrote at commit 81c2620, while values over Q were still
``fractions.Fraction``.
``kernel-osp1_4-regular-symbolic-9.json``, the benchmark's symbolic top
weight, holds what ``kernel`` wrote at commit 5f8032b, before the
screening images reached the nullspace as sparse rows; its reported
denominators follow the elimination path over Q(k).
``kernel-sl3-subregular-symbolic-8.json`` (105 columns at doubled weight
8, where 26 denominators are reported, composite residuals among them)
and ``verify-miura-sl3-subregular-symbolic-8.json`` (the h0_basis path)
hold what ``kernel`` and ``verify miura`` wrote at commit 230caae, before
the heuristic gcd took its evaluation point from one operand and the
row contents stopped at 1; they follow longer eliminations over Q(k).
``wick-brackets-seed20240.json`` holds the Q(k) brackets ``verify wick``
builds (_wick_brackets_doc), written at commit 0743513, before values of
Q(k) took short paths for constant numerators and denominators.
``datum-sl4.json`` and ``datum-osp1_6.json`` hold ``datum_to_json`` of
``build_sl(4)`` and ``build_osp(3)``, dumped as the CLI dumps JSON
(indent 2, sorted keys, a final newline), while the matrix models were
still dense and each root was read off its matrix entries, before the
structure constants came first.  The
engine promises identical output for a fixed configuration, so a change
that moves any byte of a basis, a dimension, a cohomology count, a
projection scalar or a reported denominator fails here.  Regenerate a
file only for an intended change of output, and say why in the commit.
"""

import json
import random
from pathlib import Path

import pytest

from vertexscreen.cli import main
from vertexscreen.presets import preset_context
from vertexscreen.superdata import build_osp, build_sl, datum_to_json
from vertexscreen.vertexcalc import bracket, field_to_json, normal_order
from vertexscreen.verify import WICK_PRESETS, _sample_triple

GOLDEN = Path(__file__).parent / "golden"
CASES = [
    ("sl3-regular", "symbolic", 8),
    ("osp1_4-regular", "symbolic", 6),
    ("sl3-subregular", "symbolic", 6),
    ("sl4-subregular", "7/2", 6),
    ("osp1_4-regular", "7/2", 10),
    ("sl3-regular", "7/2", 8),
    ("sl4-subregular", "symbolic", 6),
    ("osp1_6-regular", "7/2", 8),
    ("osp1_4-regular", "7/2", 12),
    ("sl4-subregular", "7/2", 8),
    ("osp1_4-regular", "symbolic", 9),
    ("sl3-subregular", "symbolic", 8),
]
VERIFY_CASES = [
    ("brst", "sl3-subregular", "symbolic", 8),
    ("brst", "osp1_4-regular", "symbolic", 6),
    ("brst", "sl2-regular", "7/2", 8),
    ("miura", "osp1_4-regular", "symbolic", 6),
    ("miura", "sl3-subregular-cartan", "symbolic", 6),
    ("brst", "sl3-subregular-cartan", "symbolic", 8),
    ("brst", "osp1_6-regular", "symbolic", 8),
    ("brst", "sl3-subregular-cartan", "symbolic", 10),
    ("miura", "osp1_6-regular", "7/2", 6),
    ("miura", "sl3-subregular", "symbolic", 8),
]
GENERIC_CASES = [
    ("osp1_2-regular", "symbolic", 6),
    ("sl3-subregular-cartan", "symbolic", 6),
]
DATUM_CASES = [("datum-sl4.json", build_sl, 4),
               ("datum-osp1_6.json", build_osp, 3)]
INFO_CASES = [("osp1_6-regular", 8), ("sl4-subregular", 8)]
SUITE_CASES = [
    ("verify-wbn-n3.json", ["verify", "wbn", "--n", "3"]),
    ("verify-wick-symbolic-trials5.json", ["verify", "wick", "--trials", "5"]),
    ("verify-fs-n3.json", ["verify", "fs", "--n", "3"]),
    ("verify-wakimoto-n3.json", ["verify", "wakimoto", "--n", "3"]),
    ("verify-wakimoto-n4.json", ["verify", "wakimoto", "--n", "4"]),
]


def _run_to_file(argv, name, tmp_path, capsys):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("preset, level, max_w2", CASES)
def test_kernel_report_matches_golden(preset, level, max_w2, tmp_path,
                                      capsys):
    name = "kernel-%s-%s-%d.json" % (preset, level.replace("/", "_"), max_w2)
    _run_to_file(["kernel", "--preset", preset, "--level", level,
                  "--max-weight", str(max_w2)], name, tmp_path, capsys)


@pytest.mark.parametrize("preset, level, max_w2", GENERIC_CASES)
def test_generic_kernel_report_matches_golden(preset, level, max_w2,
                                              tmp_path, capsys):
    name = "kernel-generic-%s-%s-%d.json" % (preset, level, max_w2)
    _run_to_file(["kernel", "--preset", preset, "--level", level,
                  "--max-weight", str(max_w2), "--screenings", "generic"],
                 name, tmp_path, capsys)


@pytest.mark.parametrize("suite, preset, level, max_w2", VERIFY_CASES)
def test_verify_report_matches_golden(suite, preset, level, max_w2,
                                      tmp_path, capsys):
    name = "verify-%s-%s-%s-%d.json" % (suite, preset,
                                        level.replace("/", "_"), max_w2)
    _run_to_file(["verify", suite, "--preset", preset, "--level", level,
                  "--max-weight", str(max_w2)], name, tmp_path, capsys)
    doc = json.loads((GOLDEN / name).read_text())
    assert doc["weights_tested"] == list(range(max_w2 + 1))


@pytest.mark.parametrize("preset, max_w2", INFO_CASES)
def test_info_report_matches_golden(preset, max_w2, tmp_path, capsys):
    name = "info-%s-%d.json" % (preset, max_w2)
    _run_to_file(["info", "--preset", preset, "--max-weight", str(max_w2)],
                 name, tmp_path, capsys)


@pytest.mark.parametrize("name, argv", SUITE_CASES)
def test_suite_report_matches_golden(name, argv, tmp_path, capsys):
    _run_to_file(argv, name, tmp_path, capsys)


@pytest.mark.parametrize("name, build, n", DATUM_CASES)
def test_datum_table_matches_golden(name, build, n):
    text = json.dumps(datum_to_json(build(n)), indent=2, sort_keys=True)
    assert (text + "\n").encode() == (GOLDEN / name).read_bytes()


def _wick_brackets_doc():
    """For each of WICK_PRESETS, the first triple (a, b, c) that
    ``verify wick`` draws at seed 20240 with its default --max-weight,
    from a fresh random.Random(20240), and the brackets its checks
    build: [a_l b], [a_l :bc:] and [f_l c] for each entry f of [a_l b]."""
    def table(br):
        return {str(n): field_to_json(f) for n, f in br.items()}
    doc = {}
    for preset in WICK_PRESETS:
        module = preset_context(preset).system
        a, b, c = _sample_triple(module, random.Random(20240), 6)
        ab = bracket(a, b)
        doc[preset] = {
            "a": field_to_json(a), "b": field_to_json(b),
            "c": field_to_json(c), "[a_l b]": table(ab),
            "[a_l :bc:]": table(bracket(a, normal_order(b, c))),
            "[(a_n b)_l c]": {str(n): table(bracket(f, c))
                              for n, f in ab.items()},
        }
    return doc


def test_wick_brackets_match_golden():
    text = json.dumps(_wick_brackets_doc(), indent=2, sort_keys=True)
    name = "wick-brackets-seed20240.json"
    assert (text + "\n").encode() == (GOLDEN / name).read_bytes()
