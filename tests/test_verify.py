"""verify_wick computes each lambda-bracket of a trial once, and the memo
tables it fills share one read-only empty entry.

One instrumented run of 5 trials (the configuration of the golden report
verify-wick-symbolic-trials5.json) records every bracket call per trial,
keeps a weakref to each trial's sampled fields and keeps the contexts the
suite built, so their memos can be read afterwards.
"""

import argparse
import json
import random
import weakref
from pathlib import Path

import pytest

from vertexscreen import verify as verify_module
from vertexscreen.vertexcalc import EMPTY, FieldExpr

GOLDEN = Path(__file__).parent / "golden"


class _Tracked(FieldExpr):
    """A sampled field that a weakref can point at."""

    __slots__ = ("__weakref__",)


@pytest.fixture(scope="module")
def wick_run():
    trials, refs, contexts = [], [], []
    bracket = verify_module.bracket
    sample = verify_module._sample_triple
    context = verify_module.preset_context

    def counted_bracket(a, b):
        trials[-1].append((id(a), id(b)))
        return bracket(a, b)

    def tracked_sample(module, rng, wmax2):
        triple = sample(module, rng, wmax2)
        if triple is None:
            return None
        triple = [_Tracked(f.system, f.terms) for f in triple]
        trials.append([])
        refs.append([weakref.ref(f) for f in triple])
        return triple

    def kept_context(*args):
        ctx = context(*args)
        contexts.append(ctx)
        return ctx

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "bracket", counted_bracket)
        mp.setattr(verify_module, "_sample_triple", tracked_sample)
        mp.setattr(verify_module, "preset_context", kept_context)
        doc = verify_module.verify_wick(
            argparse.Namespace(trials=5, max_weight=6), random.Random(20240))
    return doc, trials, refs, contexts


def test_instrumented_run_matches_golden(wick_run):
    doc = dict(wick_run[0], seed=20240, suite="wick")
    want = json.loads((GOLDEN / "verify-wick-symbolic-trials5.json")
                      .read_text())
    assert doc == want


def test_no_pair_is_bracketed_twice_in_a_trial(wick_run):
    """The four checks of a trial share one table: each operand pair,
    known by identity, is bracketed once.  The table holds its operands,
    so no id is reused within a trial."""
    _, trials, _, _ = wick_run
    assert len(trials) == 25
    for calls in trials:
        assert calls
        assert len(set(calls)) == len(calls)


def test_sampled_fields_die_with_verify_wick(wick_run):
    """No table outlives its trial: once verify_wick has returned, nothing
    holds a field it sampled."""
    _, _, refs, _ = wick_run
    assert len(refs) == 25
    assert all(r() is None for triple in refs for r in triple)


def test_empty_memo_entries_are_one_read_only_object(wick_run):
    """Every empty gen_mode and word_coeff_mono result is the shared EMPTY,
    which callers have left empty and which cannot be written."""
    _, _, _, contexts = wick_run
    assert len(contexts) == len(verify_module.WICK_PRESETS)
    empties = 0
    for ctx in contexts:
        for memo in (ctx.system._mode_memo, ctx.system._word_memo):
            for val in memo.values():
                if not val:
                    assert val is EMPTY
                    empties += 1
    assert empties
    assert len(EMPTY) == 0
    with pytest.raises(TypeError):
        EMPTY[((), None)] = 1
