"""Differential oracle for classical queries, kept for one change only.

`relstate.classical_record` is now a register write plus one `pr_apply`.
The engine it replaced, a per-label recording step with its own free-output
mask, slot widening and index callback, is copied below and checked bitwise
against it on every classical query of exp_prs and exp_prfs and of the random
programs of test_working_set. Delete this module with the next change.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from qhrolab import harness, relstate
from qhrolab.experiments import run_experiment
from qhrolab.relstate import (
    _PAIR_LIMIT,
    _Y_BITS,
    _check_entries,
    _free_outputs,
    _int_column,
    _intern,
    _key,
    _merge,
    _open_slot,
    _rel_span,
)

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# the record workload's runs; the CI byte-identity configs of exp_prs and
# exp_prfs (seed 3) use the same parameters
RECORD_RUNS = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py").WORKLOADS["record"]
working_set = _load("working_set_programs", ROOT / "tests" / "test_working_set.py")


def _append_pair_per_label(state, schema, rows, span, free, x, n_qubits, n):
    """The replaced recording step: x per label, index (i << n) | y."""
    lab, idx, amp = state.label_ids, state.indices, state.amplitudes
    nfree = free.sum(axis=1)
    if np.any(nfree == 0):
        raise ValueError("recording map undefined: no available outputs")
    per_entry = nfree[lab]
    total = int(per_entry.sum())
    _check_entries(total)
    if np.any((x < 0) | (x >= _PAIR_LIMIT)):
        raise ValueError("recorded inputs must lie in [0, 2^31)")
    free_y = np.flatnonzero(free) % free.shape[1]
    free_start = np.cumsum(nfree) - nfree
    ranks = range(int(nfree.max(initial=0)))
    src_lab, src_x, ent_src = np.arange(len(rows)), x, lab
    per_src = nfree[src_lab]
    s_start = np.cumsum(per_src) - per_src
    a, b = span
    new = np.empty((int(per_src.sum()), rows.shape[1]), dtype=np.int64)
    for r in ranks:
        s = np.flatnonzero(per_src > r)
        t = s_start[s] + r
        new[t] = rows[src_lab[s]]
        new[t, b - 1] = (src_x[s] << _Y_BITS) | free_y[free_start[src_lab[s]] + r]
    new[:, a:b].sort(axis=1)
    table, t_lab = _intern(new)
    key = np.empty(total, dtype=np.int64)
    out = np.empty(total, dtype=complex)
    scaled = amp * (1.0 / np.sqrt(nfree))[lab]
    start = 0
    for r in ranks:
        e = np.flatnonzero(per_entry > r)
        stop = start + len(e)
        y = free_y[free_start[lab[e]] + r]
        key[start:stop] = _key(n_qubits, t_lab[s_start[ent_src[e]] + r], (idx[e] << n) | y)
        out[start:stop] = scaled[e]
        start = stop
    return state._make(schema, table, *_merge(n_qubits, key, out), n_qubits=n_qubits)


def replaced_classical_record(state, oracle, w):
    """The replaced classical query: append an oracle.n-qubit answer register and record."""
    n = oracle.n
    n_new = state.n_qubits + n
    slot = oracle.slot_of(w)
    schema, rows = state.schema, state.rows
    if not len(rows):
        return state._make(schema, rows, state.label_ids, state.indices, state.amplitudes, n_new)
    free = _free_outputs(rows, [_rel_span(schema, slot)], 2**n)
    if oracle.key_slot is None:
        keys = np.zeros(len(rows), dtype=np.int64)
    else:
        keys = _int_column(schema, rows, oracle.key_slot)
    uk, kinv = np.unique(keys, return_inverse=True)
    x = np.array([oracle.input_of(k, w) for k in uk.tolist()], dtype=np.int64)[kinv]
    schema, rows, span = _open_slot(schema, rows, slot)
    return _append_pair_per_label(state, schema, rows, span, free, x, n_new, n)


def assert_bitwise_equal(a, b):
    assert a.n_qubits == b.n_qubits
    assert a.schema == b.schema
    for name in ("rows", "label_ids", "indices", "amplitudes"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


@pytest.fixture
def checked_queries(monkeypatch):
    """Every classical query of run_pr runs both paths; returns the number checked."""
    count = [0]

    def both(state, oracle, w):
        # a label without entries would be dropped by the new path only
        assert np.all(np.bincount(state.label_ids, minlength=state.label_count()) > 0)
        try:
            new = relstate.classical_record(state, oracle, w)
        except ValueError:
            with pytest.raises(ValueError):
                replaced_classical_record(state, oracle, w)
            raise
        assert_bitwise_equal(new, replaced_classical_record(state, oracle, w))
        count[0] += 1
        return new

    monkeypatch.setattr(harness, "classical_record", both)
    return count


@pytest.mark.parametrize("name, params", RECORD_RUNS, ids=[name for name, _ in RECORD_RUNS])
def test_experiment_classical_queries_match_replaced_path(checked_queries, name, params):
    assert run_experiment(name, params).passed
    assert checked_queries[0] > 0


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(working_set.programs())
def test_random_program_classical_queries_match_replaced_path(checked_queries, case):
    program, bindings, init = case
    try:
        harness.run_pr(program, bindings, init)
    except ValueError:
        pass  # the recording map is undefined on this program
