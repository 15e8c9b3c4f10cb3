"""Command-line front end.

Subcommands:
  info    algebra report: roots, grading, restricted base, classes,
          centralizer weights, expected character
  kernel  screening-kernel reports per conformal weight
  verify  named check suites: wick, brst, wbn, fs, wakimoto, miura

Weights on the command line are doubled integers ("--max-weight 12" means
conformal weight 6), so half-integer weights never need fraction parsing.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input errors
(bad arguments, an unreadable or invalid datum, a grading that is not
good, a critical level), 3 an internal error, reported on one line.
Output is deterministic for a fixed configuration and seed.
"""

import argparse
import json
import random
import re
import sys

from .errors import InputError
from .presets import build_preset, level_field, preset_names
from .screening import (ScreeningContext, choose_screenings,
                        expected_character, kernel_basis)
from .superdata import good_grading, load_datum
from . import verify as verify_mod


def _grading_from_args(args):
    if args.preset:
        return build_preset(args.preset)
    if not args.datum:
        raise InputError("one of --preset or --datum is required")
    datum = load_datum(args.datum)
    if not args.labels:
        raise InputError("--labels is required with --datum")
    labels = _json_arg("--labels", args.labels, dict)
    support = _json_arg("--f-support", args.f_support, list) \
        if args.f_support else []
    if not all(type(v) is int for v in labels.values()):
        raise InputError("--labels values must be integers")
    if not all(type(x) in (int, str) for x in support):
        raise InputError("--f-support entries must be root names or "
                         "positions")
    return good_grading(datum, labels, support)


def _count(low):
    """argparse type of a count flag: an int that is at least low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be an integer >= %d, not %d" % (low, value))
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _json_arg(flag, text, kind):
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(exc) from exc
    if not isinstance(value, kind):
        raise InputError("%s must be a JSON %s, not %s"
                         % (flag, "object" if kind is dict else "list",
                            type(value).__name__))
    return value


def _emit(doc, args):
    text = json.dumps(doc, indent=2, sort_keys=True)
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        if args.format == "table":
            _print_table(doc)
        else:
            print(text)
    except OSError as exc:
        raise InputError(exc) from exc


def _print_table(doc):
    # dicts by sorted key and lists by index; an empty one prints its key
    def walk(prefix, node):
        if not isinstance(node, (dict, list)):
            print("%-40s %s" % (prefix, node))
            return
        if not node:
            print(prefix)
        keys = sorted(node) if hasattr(node, "keys") else range(len(node))
        for key in keys:
            walk("%s.%s" % (prefix, key) if prefix else str(key),
                 node[key])

    walk("", doc)


def cmd_info(args):
    grading = _grading_from_args(args)
    datum = grading.datum
    maxw2 = args.max_weight
    char = expected_character(datum, grading, maxw2)
    cgens = grading.centralizer_generators()
    doc = {
        "label": datum.label,
        "rank": datum.rank,
        "simple_roots": [datum.roots[p].name for p in datum.simple],
        "positive_roots": [datum.roots[p].name
                           for p in datum.positive_root_positions()],
        "grading_labels2": {datum.roots[p].name: grading.labels2[p]
                            for p in datum.simple},
        "f_support": [datum.roots[p].name for p in grading.f_support],
        "h_dual": str(grading.levelform.h_dual),
        "g0_dim": len(grading.g0_indices()),
        "g0_is_cartan": grading.g0_is_cartan(),
        "restricted_base": grading.base.describe(),
        "generator_weights2": sorted(2 - j2 for _, j2, _ in cgens),
        "generator_parities": [p for _, _, p in
                               sorted(cgens, key=lambda t: (2 - t[1], t[2]))],
        "expected_character": {str(w2): char[w2]
                               for w2 in range(0, maxw2 + 1)},
    }
    _emit(doc, args)
    return 0


def cmd_kernel(args):
    ctx = ScreeningContext(_grading_from_args(args), *level_field(args.level))
    kind, ops = choose_screenings(ctx, args.screenings)
    char = expected_character(ctx.datum, ctx.grading, args.max_weight)
    reports = []
    status = 0
    for w2 in range(0, args.max_weight + 1):
        rep = kernel_basis(ctx, ops, w2, expected=char[w2])
        reports.append(rep.to_json())
        if rep.kernel_dim != rep.expected_dim:
            status = 1
    doc = {
        "preset": args.preset,
        "level": args.level,
        "screenings": [op.label for op in ops],
        "kind": kind,
        "reports": reports,
        "status": "pass" if status == 0 else "fail",
    }
    _emit(doc, args)
    return status


class _Given(argparse.Action):
    """Store a flag's value and record that the flag was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self.dest,)


# each suite's runner and the flags it reads, of those that _Given records
_SUITES = {
    "wick": (verify_mod.verify_wick, "seed trials max_weight"),
    "brst": (verify_mod.verify_brst, "preset level max_weight"),
    "wbn": (verify_mod.verify_wbn, "n"),
    "fs": (verify_mod.verify_fs_suite, "n"),
    "wakimoto": (verify_mod.verify_wakimoto, "n"),
    "miura": (verify_mod.verify_miura, "preset level max_weight"),
}


def cmd_verify(args):
    runner = _SUITES[args.suite][0]
    rng = random.Random(args.seed)
    doc = runner(args, rng)
    doc["seed"] = args.seed
    doc["suite"] = args.suite
    _emit(doc, args)
    return 0 if doc["status"] == "pass" else 1


def _refuse_unread(args):
    """Refuse a flag the command does not read, whatever its value."""
    given = getattr(args, "given", ())
    if args.command == "info" and "level" in given:
        raise InputError("info does not read --level")
    if args.command == "verify":
        reads = _SUITES[args.suite][1].split()
        for dest in given:
            if dest not in reads:
                raise InputError("verify %s does not read --%s"
                                 % (args.suite, dest.replace("_", "-")))


def make_parser():
    ap = argparse.ArgumentParser(
        prog="vertexscreen",
        description="exact screening-kernel and BRST computations "
                    "(weights are doubled integers)")
    sub = ap.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="algebra and grading report")
    p_info.set_defaults(func=cmd_info)
    p_kernel = sub.add_parser("kernel", help="screening kernels per weight")
    p_kernel.add_argument("--screenings",
                          choices=("auto", "exponential", "generic"),
                          default="auto")
    p_kernel.set_defaults(func=cmd_kernel)
    # every suite builds its own algebra from --preset or --n
    p_verify = sub.add_parser(
        "verify", help="run a named check suite",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="flags each suite reads besides --out and --format; it "
        "refuses any other:\n"
        + "\n".join("  %-9s --%s" % (suite, " --".join(reads.split()))
                    for suite, (_, reads) in _SUITES.items())
        .replace("_", "-"))
    p_verify.add_argument("suite", choices=tuple(_SUITES))
    p_verify.add_argument("--seed", type=int, default=20240, action=_Given)
    p_verify.add_argument("--n", type=_count(1), default=3, action=_Given)
    p_verify.add_argument("--trials", type=_count(1), default=25,
                          action=_Given)
    p_verify.set_defaults(func=cmd_verify)
    for p in (p_info, p_kernel, p_verify):
        p.add_argument("--preset", choices=preset_names(), action=_Given)
        # info refuses --level; it is kept only to say so
        p.add_argument("--level", default="symbolic", action=_Given,
                       help=argparse.SUPPRESS if p is p_info
                       else '"symbolic" or a rational p/q')
        p.add_argument("--max-weight", type=_count(0), default=8,
                       action=_Given,
                       help="doubled conformal weight bound"
                       + ("; verify wick caps it at 6" if p is p_verify
                          else ""))
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--format", choices=("json", "table"), default="json")
    for p in (p_info, p_kernel):
        p.add_argument("--datum", help="JSON algebra description file")
        p.add_argument("--labels",
                       help='JSON grading labels, e.g. {"a1": 0, "a2": 2}')
        p.add_argument("--f-support", help='JSON list of positive roots')
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "-1/2" for a flag, though it reads "-2" and "-0.5" as
    # values: a negative p/q is joined to its --level
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--level" and re.fullmatch(r"-\d+/\d+", argv[i]):
            argv[i - 1:i + 1] = ["--level=" + argv[i]]
    args = make_parser().parse_args(argv)
    try:
        _refuse_unread(args)  # before any flag's value is read
        level_field(args.level)  # a bad --level fails before any command
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
