"""The benchmark's span tracer still finds everything it wraps.

perfbench/tracing.py wraps vertexscreen functions, methods and memo tables
by name.  Deleting one of them (a denominator view, solve_in_span, a memo
attribute) would break only ``perfbench/run.py --trace 1``, so this test
installs the tracer on a fresh import in a subprocess, runs one small
kernel and one small BRST suite under it and reads the round's metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import argparse, functools, json, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
import vertexscreen as vs
import vertexscreen.verify
tracer = tracing.Tracer()
tracer.install()
ctx = vs.preset_context("sl2-regular")
ops = vs.exponential_screenings(ctx)
char = vs.expected_character(ctx.datum, ctx.grading, 4)
rep = tracer.run_op(0, functools.partial(vs.kernel_basis, ctx, ops, 4,
                                         expected=char[4]))
args = argparse.Namespace(preset="sl2-regular", max_weight=4,
                          level="symbolic")
brst = tracer.run_op(1, functools.partial(vs.verify.verify_brst, args,
                                          random.Random(0)))
metrics = tracer.round_metrics(1.0, 1.0)
print(json.dumps({"kernel_dim": rep.kernel_dim, "brst": brst["status"],
                  "metrics": metrics,
                  "units": sorted(tracing.metric_units())}))
"""


def test_tracer_installs_and_measures_a_kernel():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    metrics = doc["metrics"]
    assert sorted(metrics) == doc["units"]
    assert metrics["screening.kernel_basis.calls"] == 1
    assert metrics["screening.kernel_dim.total"] == doc["kernel_dim"] == 1
    assert metrics["vertexcalc.word_memo.entries"] > 0
    assert doc["brst"] == "pass"
    assert metrics["walgebras.cohomology_dims.calls"] == 1
    # one enumeration for the kernel, then per weight 0..4 one for the
    # d0^2 pass and one that cohomology_dims splits by charge
    assert metrics["vertexcalc.graded_basis.calls"] == 11
    assert metrics["vertexcalc.mode_memo.entries"] > 0
    assert metrics["walgebras.d0_memo.entries"] > 0
