import json
from fractions import Fraction

import pytest

from vertexscreen.cli import main, make_parser
from vertexscreen.errors import InputError
from vertexscreen.presets import level_field, preset_context
from vertexscreen.scalars import QQ, Rational, RationalFunctionField
from vertexscreen.screening import NonCartanZeroPart
from vertexscreen.superdata import (DatumError, DegreeMismatch, NotGoodGrading,
                                    build_sl, datum_to_json)
from vertexscreen.vertexcalc import (CriticalLevel, GradingMismatch,
                                     _term_sort_key, derive, field_to_json,
                                     normal_order)
from vertexscreen.walgebras import WakimotoMap


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def _sympy_value(text):
    """A written Q(k) value read by sympy, apart from the program."""
    sympy = pytest.importorskip("sympy")
    return sympy.sympify(text.replace("^", "**"))


def _sympy_of(x):
    """num/den of a RationalFunction, built in sympy from its coefficients."""
    sympy = pytest.importorskip("sympy")
    k = sympy.Symbol("k")
    return sympy.Poly(list(reversed(x.num)), k).as_expr() \
        / sympy.Poly(list(reversed(x.den)), k).as_expr()


def test_serialize_round_trip():
    """Every coefficient and momentum factor field_to_json writes, read
    back by sympy, equals num/den of the value it was written from, and
    the words are written by generator name in term order."""
    ctx = preset_context("osp1_2-regular")
    sys_ = ctx.system
    J = sys_.gen_field(0)
    P = sys_.gen_field(ctx.fermion_of_root[ctx.grading.base.pi_half[0]])
    fe = normal_order(J, derive(P)).scale(sys_.field.gen /
                                          (sys_.field.gen + 2))
    mu = tuple(-sys_.field.one / (sys_.field.gen + 2)
               for _ in ctx.system.currents)
    E = sys_.exp_field(mu)
    for expr in (fe, E):
        doc = field_to_json(expr)
        assert len(doc) == len(expr.terms)
        for term, ((word, mom), c) in zip(doc, sorted(
                expr.terms.items(), key=lambda kv: _term_sort_key(kv[0]))):
            assert term["word"] == [[sys_.gens[g].name, d] for g, d in word]
            assert _sympy_value(term["coeff"]) - _sympy_of(c) == 0
            written = term.get("momentum")
            assert (written is None) == (mom is None)
            for text, x in zip(written or (), () if mom is None else mom[1]):
                assert _sympy_value(text) - _sympy_of(x) == 0
    assert any("momentum" in term for term in field_to_json(E))


def test_info_preset(capsys):
    code, out = run_cli(["info", "--preset", "sl3-subregular",
                         "--max-weight", "6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["restricted_base"]["classes"] == [["a2", "a1+a2"]]
    assert doc["generator_weights2"] == [2, 2, 4, 4]
    assert doc["expected_character"]["4"] == 7
    code, out = run_cli(["info", "--preset", "sl3-subregular-cartan",
                         "--max-weight", "6"], capsys)
    doc = json.loads(out)
    assert doc["generator_weights2"] == [2, 3, 3, 4]
    code, out = run_cli(["info", "--preset", "osp1_2-regular",
                         "--max-weight", "4"], capsys)
    doc = json.loads(out)
    assert doc["generator_weights2"] == [3, 4]


def test_kernel_command_and_exit_codes(capsys):
    code, out = run_cli(["kernel", "--preset", "sl2-regular",
                         "--max-weight", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    dims = [r["kernel_dim"] for r in doc["reports"]]
    assert dims == [1, 0, 0, 0, 1, 0, 1, 0, 2]
    assert doc["status"] == "pass"


def test_kernel_specialized_level(capsys):
    code, out = run_cli(["kernel", "--preset", "sl2-regular",
                         "--max-weight", "6", "--level", "7/2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [r["kernel_dim"] for r in doc["reports"]] == [1, 0, 0, 0, 1, 0, 1]


def test_kernel_critical_level_is_usage_error(capsys):
    code = main(["kernel", "--preset", "sl2-regular", "--level", "-2"])
    assert code == 2
    assert "k = -h_dual is excluded" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel", "--preset", "sl2-regular", "--max-weight", "2"],
    ["verify", "brst", "--preset", "sl2-regular", "--max-weight", "4"],
])
def test_negative_fraction_level_reads_as_a_value(argv, capsys):
    """argparse takes "-1/2" after a space for a flag; the command line
    reads it as the level, as it reads "--level=-1/2"."""
    joined = main(argv + ["--level=-1/2"]), capsys.readouterr()
    spaced = main(argv + ["--level", "-1/2"]), capsys.readouterr()
    assert spaced == joined
    assert joined[0] == 0 and json.loads(joined[1].out)["status"] != "fail"
    # a flag after --level is still no value
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--level", "--max-weight", "2"])
    assert exc.value.code == 2


def test_kernel_nongeneric_level_exits_one(capsys):
    """k = 1 is a resonant level for the rank-one regular reduction: the
    weight-5 kernel jumps above the generic dimension, the report flags
    the mismatch and the exit status is 1."""
    code, out = run_cli(["kernel", "--preset", "sl2-regular",
                         "--max-weight", "10", "--level", "1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    last = doc["reports"][-1]
    assert last["kernel_dim"] == 3 and last["expected_dim"] == 2


def test_verify_commands(capsys):
    code, out = run_cli(["verify", "wick", "--trials", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["seed"] == 20240
    code, out = run_cli(["verify", "brst", "--preset", "sl2-regular",
                         "--max-weight", "6"], capsys)
    assert json.loads(out)["status"] == "pass"
    assert code == 0
    code, out = run_cli(["verify", "fs", "--n", "2"], capsys)
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("preset, max_w2", [
    ("sl2-regular", 8), ("osp1_4-regular", 6), ("sl3-subregular-cartan", 6)])
def test_verify_miura_honours_level(preset, max_w2, capsys):
    """At --level 7/2 the projection scalars are plain rationals, equal to
    the Q(k) scalars evaluated at k = 7/2."""
    docs = {}
    for level in ("symbolic", "7/2"):
        code, out = run_cli(["verify", "miura", "--preset", preset,
                             "--max-weight", str(max_w2), "--level", level],
                            capsys)
        assert code == 0
        docs[level] = json.loads(out)["scalars_vs_kernel_basis"]
    sympy = pytest.importorskip("sympy")
    sym, spec = docs["symbolic"], docs["7/2"]
    assert spec and sorted(spec) == sorted(sym)
    for w2, text in spec.items():
        at = _sympy_value(sym[w2]).subs(sympy.Symbol("k"),
                                        sympy.Rational(7, 2))
        assert sympy.Rational(text) == at


def test_verify_miura_on_a_non_cartan_grading(capsys):
    """With g_0 = gl_2 (sl3-subregular, the W^(2)_3 algebra) the
    projection is checked against the generic screenings, the ones
    ``kernel --screenings auto`` picks."""
    code, out = run_cli(["verify", "miura", "--preset", "sl3-subregular",
                         "--max-weight", "8"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["weights_tested"] == list(range(9))


def test_verify_brst_honours_max_weight(capsys):
    """verify brst tests every weight up to --max-weight, past 8 too."""
    code, out = run_cli(["verify", "brst", "--preset", "sl2-regular",
                         "--max-weight", "10"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["weights_tested"] == list(range(11))
    assert doc["h0_dims"] == doc["character"]
    assert len(doc["character"]) == 11


def test_verify_deterministic_output(capsys):
    code, a = run_cli(["verify", "wick", "--trials", "2", "--seed", "7"],
                      capsys)
    code, b = run_cli(["verify", "wick", "--trials", "2", "--seed", "7"],
                      capsys)
    assert a == b


def test_datum_file_input(tmp_path, capsys):
    doc = datum_to_json(build_sl(2))
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli([
        "kernel", "--datum", str(path),
        "--labels", '{"s1": 2}', "--f-support", '["s1"]',
        "--max-weight", "6"], capsys)
    assert code == 0
    assert [r["kernel_dim"]
            for r in json.loads(out)["reports"]] == [1, 0, 0, 0, 1, 0, 1]


def test_bad_input_exit_code(tmp_path):
    assert main(["kernel", "--datum", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        make_parser().parse_args(["kernel", "--preset", "no-such"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["verify", "wbn", "--n", "-1"], "--n"),
    (["verify", "wbn", "--n", "0"], "--n"),
    (["verify", "wick", "--trials", "-1"], "--trials"),
    (["verify", "wick", "--trials", "0"], "--trials"),
    (["kernel", "--preset", "sl2-regular", "--max-weight", "-1"],
     "--max-weight"),
    (["verify", "brst", "--max-weight", "-3"], "--max-weight"),
    (["verify", "wick", "--max-weight", "0"], "--max-weight"),
])
def test_bad_count_is_usage_error(argv, flag, capsys):
    """A count below its least value names the flag and exits 2, instead
    of a vacuous pass or an internal error.  argparse rejects a count
    below the flag's bound; a suite rejects one below its own (verify
    wick samples weights from 1 up) with an InputError."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "argument %s: must be an integer >= " % flag in err
    assert "internal" not in err


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["info", "--preset", "sl2-regular", "--max-weight",
                       "4", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["h_dual"] == "2"


def test_table_format(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(["info", "--preset", "sl2-regular", "--max-weight",
                         "4", "--out", str(out_path), "--format", "table"],
                        capsys)
    assert code == 0
    assert "h_dual" in out and "{" not in out.splitlines()[0]


@pytest.mark.parametrize("argv", [
    ["kernel", "--preset", "sl2-regular", "--max-weight", "4"],
    ["info", "--preset", "osp1_4-regular", "--max-weight", "6"]])
def test_table_format_walks_lists(argv, capsys):
    """--format table walks lists by index as it walks dicts by key: no
    printed value is a list or a dict, and every leaf of the JSON report
    is printed under its path."""
    code, default = run_cli(argv, capsys)
    code_table, table = run_cli(argv + ["--format", "table"], capsys)
    assert code == code_table == 0
    rows = {}
    for line in table.splitlines():
        key, _, value = line.partition(" ")
        rows[key] = value.strip()
        assert not rows[key].startswith(("[", "{")), line

    def leaves(prefix, node):
        if isinstance(node, dict):
            node = {str(k): v for k, v in node.items()}
        elif isinstance(node, list):
            node = {str(i): v for i, v in enumerate(node)}
        else:
            yield prefix, node
            return
        if not node:
            yield prefix, ""
        for key, value in node.items():
            yield from leaves(prefix + "." + key if prefix else key, value)

    want = {key: str(value) for key, value in leaves("", json.loads(default))}
    assert rows == want
    if argv[0] == "kernel":
        assert rows["reports.4.kernel_dim"] == "1"


def test_table_format_without_out(capsys):
    """--format table prints the table with or without --out; the default
    JSON output is what --format json prints."""
    argv = ["info", "--preset", "sl2-regular", "--max-weight", "4"]
    code, table = run_cli(argv + ["--format", "table"], capsys)
    assert code == 0
    assert "h_dual" in table and "{" not in table.splitlines()[0]
    code, default = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(default)
    assert run_cli(argv + ["--format", "json"], capsys) == (0, default)


@pytest.mark.parametrize("suite", ["brst", "miura"])
@pytest.mark.parametrize("flag, value", [
    ("--datum", "/nonexistent.json"),
    ("--labels", '{"a1": 2}'),
    ("--f-support", '["a1"]'),
])
def test_verify_rejects_unread_flags(suite, flag, value, capsys):
    """No verify suite reads a datum, so verify takes no datum flags:
    argparse rejects them as usage errors instead of running the default
    preset."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--max-weight", "2", flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: %s" % flag in err
    assert "internal" not in err


@pytest.mark.parametrize("suite, flag, value", [
    ("wick", "--level", "7/2"),
    ("wick", "--level", "symbolic"),
    ("wick", "--preset", "sl2-regular"),
    ("wick", "--n", "3"),
    ("wbn", "--level", "7/2"),
    ("wbn", "--max-weight", "4"),
    ("fs", "--max-weight", "4"),
    ("wakimoto", "--preset", "sl3-subregular"),
    ("brst", "--trials", "3"),
    ("brst", "--seed", "7"),
    ("miura", "--n", "4"),
    # refused before the value is parsed
    ("wbn", "--level", "1/0"),
    ("wick", "--level", "x"),
])
def test_verify_rejects_flags_its_suite_does_not_read(suite, flag, value,
                                                      capsys):
    """A flag the chosen suite does not read exits 2 with one error line
    naming the suite and the flag, also when it is given its default
    value, instead of running with the flag ignored."""
    assert main(["verify", suite, flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: verify %s does not read %s\n" % (suite, flag)


@pytest.mark.parametrize("level", ["7/2", "symbolic", "x"])
def test_info_rejects_level(level, capsys):
    """info reads no level: --level exits 2 with one error line, also at
    its default value or a value that is no level, instead of printing
    the report it prints without the flag."""
    assert main(["info", "--preset", "sl2-regular", "--level", level]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: info does not read --level\n"


def _help(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_info_help_does_not_offer_level(capsys):
    """info --help lists no --level, the flag info refuses; kernel and
    verify still offer it."""
    assert "--level" not in _help(["info"], capsys)
    assert "--preset" in _help(["info"], capsys)
    for argv in (["kernel"], ["verify", "brst"]):
        text = _help(argv, capsys)
        assert "--level LEVEL" in text
        assert '"symbolic" or a rational p/q' in text


def test_verify_help_names_the_flags_each_suite_reads(capsys):
    """verify --help ends with one line per suite naming the flags it
    reads, the same table main refuses the others by: every flag
    named is accepted and every other suite flag is refused."""
    text = _help(["verify", "wick"], capsys)
    lines = text.split("besides --out and --format; it refuses any other:\n",
                       1)[1].splitlines()
    reads = {line.split()[0]: line.split()[1:] for line in lines}
    assert reads == {"wick": ["--seed", "--trials", "--max-weight"],
                     "brst": ["--preset", "--level", "--max-weight"],
                     "wbn": ["--n"], "fs": ["--n"], "wakimoto": ["--n"],
                     "miura": ["--preset", "--level", "--max-weight"]}
    values = {"--seed": "20240", "--trials": "25", "--max-weight": "8",
              "--preset": "sl3-regular", "--level": "symbolic", "--n": "3"}
    for suite, flags in reads.items():
        for flag in set(values) - set(flags):
            assert main(["verify", suite, flag, values[flag]]) == 2
            assert capsys.readouterr().err == \
                "error: verify %s does not read %s\n" % (suite, flag)


def test_bad_level_text_is_usage_error(capsys):
    assert main(["kernel", "--preset", "sl2-regular", "--level", "abc"]) == 2
    assert main(["verify", "brst", "--level", "1/0"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: --level") == 2 and "internal" not in err


def test_unknown_root_name_is_usage_error(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(datum_to_json(build_sl(2))))
    assert main(["kernel", "--datum", str(path),
                 "--labels", '{"nope": 2}']) == 2
    assert "unknown root name" in capsys.readouterr().err


def test_internal_error_exits_three(monkeypatch, capsys):
    """An engine fault is not a usage error, even when it is a ValueError."""
    import vertexscreen.cli as cli

    def broken(*args):
        raise GradingMismatch("weights disagree")

    monkeypatch.setattr(cli, "expected_character", broken)
    assert main(["info", "--preset", "sl2-regular"]) == 3
    err = capsys.readouterr().err.strip()
    assert err == "internal error: GradingMismatch: weights disagree"


@pytest.mark.parametrize("doc", [
    {key: val for key, val in datum_to_json(build_sl(2)).items()
     if key != "rank"},
    {key: val for key, val in datum_to_json(build_sl(2)).items()
     if key != "roots"},
    [1, 2],
    dict(datum_to_json(build_sl(2)), rank="two"),
    dict(datum_to_json(build_sl(2)), form=[["1"]]),
])
def test_malformed_datum_is_usage_error(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["kernel", "--datum", str(path),
                 "--labels", '{"s1": 2}', "--max-weight", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize("entry,value", [
    (("structure_constants", 0, 0), 0.9), (("rank",), 1.7),
    (("roots", 0, "parity"), 0.6), (("form", 0, 0), 2.1),
])
def test_float_in_datum_is_usage_error(entry, value, tmp_path, capsys):
    """kernel --datum exits 2 on a JSON float in the datum, naming it."""
    doc = datum_to_json(build_sl(2))
    node = doc
    for key in entry[:-1]:
        node = node[key]
    node[entry[-1]] = value
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    assert main(["kernel", "--datum", str(path),
                 "--labels", '{"s1": 2}', "--max-weight", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not %r" % value in err


@pytest.mark.parametrize("flags", [
    ["--labels", "[1]"],
    ["--labels", '{"s1": "two"}'],
    ["--labels", '{"s1": 2}', "--f-support", '{"s1": 1}'],
    ["--labels", '{"s1": 2}', "--f-support", "[[1]]"],
])
def test_wrong_json_type_in_flags_is_usage_error(flags, tmp_path, capsys):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(datum_to_json(build_sl(2))))
    assert main(["kernel", "--datum", str(path), "--max-weight", "2"]
                + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and "internal" not in err


def test_datum_file_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bom16.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["kernel", "--datum", str(path),
                 "--labels", '{"s1": 2}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UnicodeDecodeError" not in err \
        and "internal" not in err


def _stdlib_error(fn):
    try:
        fn()
    except (OSError, ValueError) as exc:
        return "error: %s" % exc
    raise AssertionError("no error raised")


def test_io_and_json_errors_keep_their_messages(tmp_path, capsys):
    """Unreadable or unparsable input and an unwritable --out exit 2 with
    the message of the underlying error; every input error shares one
    base class."""
    missing, junk = tmp_path / "missing.json", tmp_path / "junk.json"
    junk.write_text("{")
    sl2 = tmp_path / "sl2.json"
    sl2.write_text(json.dumps(datum_to_json(build_sl(2))))
    cases = [
        (["kernel", "--datum", str(missing)], lambda: open(missing)),
        (["kernel", "--datum", str(junk)], lambda: json.loads("{")),
        (["kernel", "--datum", str(sl2), "--labels", "{"],
         lambda: json.loads("{")),
        (["info", "--preset", "sl2-regular", "--out", str(tmp_path)],
         lambda: open(tmp_path, "w")),
    ]
    for argv, fn in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.strip() == _stdlib_error(fn), argv
    for exc in (DatumError, NotGoodGrading, DegreeMismatch, CriticalLevel,
                NonCartanZeroPart):
        assert issubclass(exc, InputError)


@pytest.mark.parametrize("command", ["info", "kernel"])
def test_seed_is_a_verify_flag(command, capsys):
    """Only the randomized verify suites read --seed."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", "sl2-regular", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"rank": 1,
     "roots": [{"coords": ["1"], "parity": 1},
               {"coords": ["-1"], "parity": 1}],
     "structure_constants": [],
     "form": [["0"] * 3 for _ in range(3)]},
    {"rank": 0, "roots": [], "structure_constants": [], "form": []},
])
def test_datum_without_even_root_is_usage_error(doc, tmp_path, capsys):
    """A datum whose roots are all odd, or that has none, has no theta to
    normalize the form against: an input error, not an internal one."""
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    assert main(["kernel", "--datum", str(path),
                 "--labels", '{"s1": 1}']) == 2
    assert capsys.readouterr().err.strip() == \
        "error: no even positive root"


@pytest.mark.parametrize("position", [99, 2, -1])
def test_f_support_position_out_of_range(position, tmp_path, capsys):
    """An f-support position names one of the datum's roots; any other int
    is an input error, never an index into the root list."""
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(datum_to_json(build_sl(2))))
    assert main(["kernel", "--datum", str(path), "--labels", '{"s1": 2}',
                 "--f-support", "[%d]" % position, "--max-weight", "2"]) == 2
    assert capsys.readouterr().err.strip() == \
        "error: root position %d out of range" % position


def test_label_on_non_simple_root_is_usage_error(tmp_path, capsys):
    """Grading labels sit on simple roots only; a label on any other root
    is an input error, not a value silently dropped."""
    path = tmp_path / "sl3.json"
    path.write_text(json.dumps(datum_to_json(build_sl(3))))
    assert main(["info", "--datum", str(path),
                 "--labels", '{"s1": 2, "s2": 2, "s1+s2": 0}',
                 "--f-support", '["s1", "s2"]']) == 2
    assert capsys.readouterr().err.strip() == \
        "error: label on s1+s2, which is not a simple root"


def test_info_on_a_datum_reads_no_level(tmp_path, capsys):
    """info reports the grading alone, on a datum file as on a preset, and
    never reads a level: the critical k = -h_dual, which kernel rejects,
    is refused by info as a flag it does not read."""
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(datum_to_json(build_sl(2))))
    datum_args = ["--datum", str(path), "--labels", '{"s1": 2}',
                  "--f-support", '["s1"]']
    code, out = run_cli(["info"] + datum_args, capsys)
    assert code == 0
    code, want = run_cli(["info", "--preset", "sl2-regular"], capsys)
    assert code == 0
    doc, want = json.loads(out), json.loads(want)
    for key in ("h_dual", "generator_weights2", "expected_character"):
        assert doc[key] == want[key], key
    critical = ["--level", "-2"]
    assert main(["info"] + datum_args + critical) == 2
    assert capsys.readouterr().err == "error: info does not read --level\n"
    assert main(["kernel"] + datum_args + critical) == 2
    assert "does not read" not in capsys.readouterr().err


def test_model_too_small_is_usage_error(capsys):
    """The lattice model needs n >= 2, and the current substitution an n
    with an sl_n-subregular preset, so n >= 3; a smaller n is bad input
    (exit 2), not an internal error."""
    assert main(["verify", "fs", "--n", "1"]) == 2
    assert capsys.readouterr().err.strip() == "error: needs n >= 2"
    with pytest.raises(InputError, match="unknown preset 'sl2-subregular'"):
        WakimotoMap(2)


@pytest.mark.parametrize("text", ["x", "1/0", "", " 7/2", "7 / 2", "1_000",
                                  "1e3", ".5"])
def test_level_field_rejects_what_the_cli_rejects(text, capsys):
    """level_field is the one parser of a level: its InputError carries the
    text the command line prints for the same --level."""
    message = "--level must be \"symbolic\" or a rational p/q, not %r" % text
    with pytest.raises(InputError) as exc:
        level_field(text)
    assert str(exc.value) == message
    assert main(["kernel", "--preset", "sl2-regular", "--level", text]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s\n" % message)


def test_level_field_maps_levels():
    assert level_field(Fraction(7, 2)) == (QQ, Fraction(7, 2))
    assert level_field("7/2") == (QQ, Fraction(7, 2))
    assert type(level_field("7/2")[1]) is Rational
    field, k = level_field("symbolic")
    assert field is RationalFunctionField("k") and k == field.gen


@pytest.mark.parametrize("n", [1, 2, 5])
def test_verify_wakimoto_rejects_n_without_a_preset(n, capsys):
    """verify wakimoto checks sl_n-subregular for the --n it is given, so an
    n with no such preset is an input error, not sl_3 or a KeyError."""
    assert main(["verify", "wakimoto", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: unknown preset 'sl%d-subregular' (known: " % n)


def _sl2_doc(**changes):
    doc = datum_to_json(build_sl(2))
    doc["roots"][0] = dict(doc["roots"][0], **changes.pop("root", {}))
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc, message", [
    (_sl2_doc(root={"coords": ["2", "0"]}),
     "a root has 2 coordinates, not rank 1"),
    (_sl2_doc(root={"parity": 2}), "root parity must be 0 or 1"),
    (_sl2_doc(structure_constants=[[0, 1, 99, "2"]]),
     "structure constant index out of range"),
])
def test_datum_errors_print_their_own_message(doc, message, tmp_path,
                                              capsys):
    """The loader's own checks print their message once, without the
    "malformed datum" wrapping of stdlib errors."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["kernel", "--datum", str(path),
                 "--labels", '{"s1": 2}', "--max-weight", "2"]) == 2
    assert capsys.readouterr().err.strip() == "error: " + message
