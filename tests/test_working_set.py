"""Bounded working set of the recording engine and of reduce_view.

The view must not depend on how reduce_view cuts the entries into runs and
pair chunks, and the traced peaks of reduce_view and of a recording step stay
bounded on the state of the `record` benchmark workload: the ideal side of
exp_prs at n=3, lam=3, t=2, s=3 (150,528 entries on 75,264 labels, 8.4 MB).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from test_engine_diff import programs

from qhrolab import experiments, harness
from qhrolab.constructions import haar_slot
from qhrolab.harness import ClassicalPROracle, KeyInit, reduce_view, run_pr
from qhrolab.relstate import Rel

KEEP = list(range(6))  # exp_prs keeps the first 2n qubits


def record_ideal_state():
    n, lam, t, s = 3, 3, 2, 3
    bindings = {
        "copy": ClassicalPROracle(n=n, rel_slot=0, input_of=lambda k, w: 0, key_slot=2),
        "U": haar_slot(n, slot=1),
    }
    return run_pr(experiments._prs_program(n, t, s), bindings, (Rel(), Rel(), KeyInit(lam)))


@pytest.fixture(scope="module")
def record_state():
    return record_ideal_state()


def nbytes(state):
    return sum(a.nbytes for a in (state.rows, state.label_ids, state.indices, state.amplitudes))


def traced_peak(fn):
    """(fn(), peak of the memory traced from the start of the call)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def unit_chunk_view(state, keep):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_RUN_ENTRIES", 1)
        mp.setattr(harness, "_PAIR_CHUNK", 1)
        return reduce_view(state, keep)


def assert_same_view(a, b):
    assert np.array_equal(a.reduced.entries, b.reduced.entries)
    assert a.diagnostics == b.diagnostics


def test_record_view_is_chunk_invariant(record_state):
    assert record_state.entry_count() == 150528
    assert_same_view(unit_chunk_view(record_state, KEEP), reduce_view(record_state, KEEP))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_random_program_views_are_chunk_invariant(case):
    program, bindings, init = case
    try:
        state = run_pr(program, bindings, init)
    except ValueError:
        return  # the recording map is undefined on this program
    for keep in (None, list(range(min(state.n_qubits, 3)))):
        assert_same_view(unit_chunk_view(state, keep), reduce_view(state, keep))


def test_reduce_view_peak_is_bounded(record_state):
    # one run of whole labels and one pair chunk: about 2.4 MB on this state;
    # sorting the whole 8.4 MB state at once needs about 9.8 MB
    _, peak = traced_peak(lambda: reduce_view(record_state, KEEP))
    assert peak < 4e6


def test_recording_step_peak_is_input_plus_output(monkeypatch):
    steps, pr_apply = [], harness.pr_apply

    def traced(state, *args, **kwargs):
        out, peak = traced_peak(lambda: pr_apply(state, *args, **kwargs))
        steps.append((peak, nbytes(state) + nbytes(out)))
        return out

    monkeypatch.setattr(harness, "pr_apply", traced)
    record_ideal_state()
    # the last oracle query: 12,544 labels in, 75,264 out; about 1.24x here,
    # and about 1.86x with sorted entry copies and a second label table
    peak, size = steps[-1]
    assert size > 9e6
    assert peak < 1.5 * size
