"""Benchmark of vertexscreen: screening kernels and verify suites.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kernel-symbolic --seed 1 \
        --seconds 30 --trace 0

A run sets the workload up SETUP_REPS times, and more until the set-ups
have taken SETUP_MIN_S, then runs whole rounds of its operations until
another round would overrun --seconds (at least one).  Every round starts
from a fresh import of vertexscreen and freshly built contexts, so no memo
table carries over.  Times are reported at a fixed reference speed of the
host, sampled all through the timed phase (hostspeed.py); the raw times go
to the result file.  After the timed phase the outputs of every round are
checked against oracles computed apart from the program (oracles.py).  The
last line of standard output is one JSON object: correct, attempted,
failed and the metrics, end-to-end ones with --trace 0 and per-layer ones
(tracing.py) with --trace 1.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from statistics import median

import hostspeed
import oracles
import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPS = 7
SETUP_MIN_S = 2.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def fresh_import(tracer=None):
    """Import vertexscreen anew, dropping every module of an earlier import."""
    for name in [n for n in sys.modules
                 if n == "vertexscreen" or n.startswith("vertexscreen.")]:
        del sys.modules[name]
    vs = importlib.import_module("vertexscreen")
    importlib.import_module("vertexscreen.verify")
    if not os.path.abspath(vs.__file__).startswith(SRC + os.sep):
        raise ImportError("vertexscreen imported from %s, not from %s"
                          % (vs.__file__, SRC))
    if tracer is not None:
        tracer.reset()
        tracer.install()
    return vs


def timed_setup(workload, seed, tracer, speed):
    """(scaled s, raw s, operations) of one set-up."""
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    vs = fresh_import(tracer)
    ops = workload.setup(vs, seed)
    w1, c1 = time.perf_counter(), time.process_time()
    return speed.scale(w0, w1, c0, c1)[0], w1 - w0, ops


def run_round(workload, ops, tracer, speed):
    """Run every operation once; (scaled wall s, scaled cpu s, speed
    factor, raw wall s, [(failed, record)]).

    Each output is cut down to a plain record as soon as it is made, and
    each operation is dropped and the garbage collected once it has run,
    so a finished preset's contexts and memo tables are not kept alive
    while the next one runs, and the peak memory does not depend on the
    order the seed gives the operations.
    """
    gc.collect()
    results = []
    w0, c0 = time.perf_counter(), time.process_time()
    for op_id in range(len(ops)):
        key, call = ops[op_id]
        ops[op_id] = None
        try:
            out = tracer.run_op(op_id, call) if tracer else call()
        except Exception:    # counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            results.append((True, None))
        else:
            results.append(workload.record(key, out))
            del out
        del call
        gc.collect()
    w1, c1 = time.perf_counter(), time.process_time()
    return speed.scale(w0, w1, c0, c1) + (w1 - w0, results)


def canonical(x):
    """A plain, import-independent form of a record, for comparing rounds."""
    if isinstance(x, dict):
        return sorted((repr(k), canonical(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, (int, str, float, Fraction, type(None))):
        return x
    return str(x)


def timed_phase(workload, args, tracer, trace_path, speed):
    """Set up SETUP_REPS times and for at least SETUP_MIN_S, then run
    whole rounds for --seconds."""
    begin = time.perf_counter()
    phase = {"setup": [], "setup_raw": [], "rounds": [], "layer_rounds": [],
             "attempted": 0, "failed": 0, "records": None, "mismatches": []}
    while (len(phase["setup"]) < SETUP_REPS
           or sum(phase["setup_raw"]) < SETUP_MIN_S):
        ops = None
        dt, raw, ops = timed_setup(workload, args.seed, tracer, speed)
        phase["setup"].append(dt)
        phase["setup_raw"].append(raw)
    first_signature = None
    rounds = phase["rounds"]
    while True:
        round_begin = time.perf_counter()
        if rounds:
            ops = None
            dt, raw, ops = timed_setup(workload, args.seed, tracer, speed)
            phase["setup"].append(dt)
            phase["setup_raw"].append(raw)
        n_ops = len(ops)
        solve_s, cpu_s, factor, raw, results = run_round(workload, ops,
                                                         tracer, speed)
        if tracer is not None:
            phase["layer_rounds"].append(
                tracer.round_metrics(solve_s, factor))
            tracer.dump(trace_path, len(rounds))
            tracer.reset()
        phase["attempted"] += n_ops
        phase["failed"] += sum(bad for bad, _rec in results)
        signature = [(bad, canonical(rec)) for bad, rec in results]
        if first_signature is None:
            first_signature = signature
            phase["records"] = [rec for bad, rec in results if not bad]
        elif signature != first_signature:
            phase["mismatches"].append("round %d differs from round 0"
                                       % len(rounds))
        rounds.append((solve_s, cpu_s, factor, raw))
        print("round %d: %d operations, %.3f s wall (%.3f s raw, speed "
              "factor %.3f), %.3f s cpu"
              % (len(rounds) - 1, n_ops, solve_s, raw, factor, cpu_s),
              file=sys.stderr)
        if len(rounds) == 1:
            # later rounds reuse a heap the first one grew, so only the
            # first round's peak is comparable between runs
            phase["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = results = None
        now = time.perf_counter()
        if now - begin + (now - round_begin) > args.seconds:
            return phase


def run(args):
    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    trace_path = os.path.join(OUT, "trace-%s-%d.txt.gz"
                              % (args.workload, args.seed))
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        if os.path.exists(trace_path):
            os.remove(trace_path)
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        phase = timed_phase(workload, args, tracer, trace_path, speed)
    finally:
        speed.stop()
    rounds = phase["rounds"]

    errors = phase["mismatches"] + workload.check(phase["records"],
                                                  fresh_import)
    for line in errors:
        print("check failed: %s" % line, file=sys.stderr)

    if tracer is not None:
        units = tracing.metric_units()
        values = tracing.median_metrics(phase["layer_rounds"])
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": median(phase["setup"]),
                  "solve_s": median(r[0] for r in rounds),
                  "cpu_s": median(r[1] for r in rounds),
                  "peak_rss_mb": phase["peak_rss_mb"]}
    result = {
        "correct": not errors,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(dict(result, rounds=len(rounds),
                       setup_runs=phase["setup"],
                       setup_runs_raw=phase["setup_raw"],
                       round_times=[dict(zip(("solve_s", "cpu_s", "factor",
                                              "raw_s"), r)) for r in rounds],
                       speed_samples=len(speed.samples)), fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vertexscreen", "__init__.py")):
        print("perfbench: no vertexscreen sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    oracles.self_test()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
