"""Bounded working set of the recording engine and of reduce_view.

The view must not depend on how reduce_view cuts the entries into runs and
pair chunks, the good mass must equal the norm of the projected sub-state
bitwise, and the traced peaks of reduce_view and of a recording step stay
bounded on the keyed stress state of the engine: the ideal hybrid of exp_prs
at n=3, lam=3, t=2, s=3 with an unread uniform key register (150,528 entries
on 75,264 labels, 8.4 MB). exp_prs builds that hybrid without the key, 2^lam
times smaller, and runs its real side one key at a time (6,720 entries per
key); the largest state of the `record` benchmark workload is now the
keyless ideal side (18,816 entries).
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qhrolab import bounds, harness, relstate
from qhrolab.constructions import haar_slot, pru_one_query, pru_two_query
from qhrolab.harness import (
    AdversaryProgram,
    ClassicalPROracle,
    ClassicalQuery,
    KeyInit,
    QuantumQuery,
    haar_interleave,
    phased_permutation_interleave,
    reduce_view,
    run_pr,
)
from qhrolab.linalg import trial_rng
from qhrolab.labels import Rel, key_column, pair_columns
from qhrolab.relstate import CFParams, PurifiedState, project_good

KEEP = list(range(6))  # exp_prs keeps the first 2n qubits

# ------------------------------------------------------------ random programs

# slots: 0 and 1 relations, 2 the key, 3 and 4 one relation per classical input w
INIT_SLOTS = (Rel(), Rel(), None, Rel(), Rel())

CLASSICAL_MODES = {
    "slot": dict(rel_slot=(0, 0)),
    "per_w": dict(rel_slot=(3, 4)),
}


# classical queries fail more often (their relations fill up), so they are drawn twice as often
STEP_KINDS = ("dense", "sparse", "pr", "pr_shared", "two_query", "one_query_cf", "cf", "classical", "classical")


def descriptor(kind, n, lam, fold, prefix):
    cf = CFParams(fold, prefix, n)
    if kind == "pr":
        return haar_slot(n, slot=0)
    if kind == "pr_shared":
        return haar_slot(n, slot=1, shared_slots=(0, 1))
    if kind == "two_query":
        return pru_two_query(n, lam)
    if kind == "one_query_cf":
        return pru_one_query(n, lam, cf=cf)
    return haar_slot(n, slot=1, cf=cf, shared_slots=(1, 0))


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    lam = draw(st.integers(1, n))
    fold = draw(st.integers(1, 2))
    prefix = draw(st.integers(1, n))
    rng = trial_rng(draw(st.integers(0, 2**16)))
    steps = [haar_interleave(n, rng)]
    bindings = {}
    reg = n
    records = 0  # recordings so far; each multiplies the state by up to 2^n
    for j in range(1 + draw(st.integers(1, 4))):
        # the first query is classical: every relation is still empty, so it has room to record
        kind = "classical" if j == 0 else draw(st.sampled_from(STEP_KINDS))
        records += {"dense": 0, "sparse": 0, "two_query": 2}.get(kind, 1)
        if records > 3:
            break
        if kind in ("dense", "sparse"):
            targets = draw(st.lists(st.integers(0, reg - 1), min_size=1, max_size=reg, unique=True))
            make = haar_interleave if kind == "dense" else phased_permutation_interleave
            steps.append(make(reg, rng, targets=targets))
        elif kind == "classical":
            mode = draw(st.sampled_from(sorted(CLASSICAL_MODES)))
            w = draw(st.integers(0, 1))
            shift = draw(st.integers(0, 3))
            reads_key = draw(st.booleans())
            bindings[f"C{j}"] = ClassicalPROracle(
                n=1,
                input_of=lambda k, w, s=shift, r=reads_key: (r * k + w + s) % 2,
                **CLASSICAL_MODES[mode],
            )
            steps.append(ClassicalQuery(f"C{j}", w))
            reg += 1
        else:
            bindings[f"Q{j}"] = descriptor(kind, n, lam, fold, prefix)
            steps.append(QuantumQuery(f"Q{j}", tuple(range(n))))
    init = tuple(KeyInit(lam) if s is None else s for s in INIT_SLOTS)
    return AdversaryProgram(n=n, steps=tuple(steps)), bindings, init


def keyed_stress_state():
    """The keyed ideal hybrid of exp_prs at n=3, lam=3, t=2, s=3.

    The copy oracle ignores k, so the uniform key register is carried but
    never read; exp_prs builds this hybrid without it.
    """
    n, lam = 3, 3
    game = bounds.PrsParams.parse({"seed": 0, "n": n, "lam": lam, "t": 2, "s": 3, "scaling": False})
    prog = bounds._oracle_program(game, n)
    copy = ClassicalPROracle(n=n, rel_slot=(0,), input_of=lambda k, w: 0)
    return run_pr(prog, {"copy": copy, "U": haar_slot(n, slot=1)}, (Rel(), Rel(), KeyInit(lam)))


@pytest.fixture(scope="module")
def stress_state():
    return keyed_stress_state()


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
    assert np.array_equal(a.entries, b.entries)


def test_record_view_is_chunk_invariant(stress_state):
    assert stress_state.entry_count() == 150528
    assert_same_view(unit_chunk_view(stress_state, KEEP), reduce_view(stress_state, KEEP))


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


# ------------------------------------------------------- the label encoder


def assert_columns_rebuild(state):
    """from_columns, fed every slot's columns, rebuilds the state bitwise."""
    slots = [pair_columns(state, s) if spec[0] == "rel" else key_column(state, s) for s, spec in enumerate(state.schema)]
    out = PurifiedState.from_columns(state.n_qubits, slots, state.label_ids, state.indices, state.amplitudes.copy())
    assert out.schema == state.schema
    for name in ("rows", "label_ids", "indices", "amplitudes"):
        a, b = getattr(out, name), getattr(state, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@st.composite
def dict_states(draw):
    pair = st.integers(0, 2**31 - 1)
    rel = st.lists(st.tuples(pair, pair), max_size=3, unique_by=lambda p: p[1]).map(Rel)
    key = st.integers(-(2**62) + 1, 2**62 - 1)
    kinds = draw(st.lists(st.sampled_from((rel, key)), min_size=1, max_size=3))
    labels = draw(st.lists(st.tuples(*kinds), min_size=1, max_size=6, unique=True))
    amp = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    return PurifiedState(2, {lab: draw(st.dictionaries(st.integers(0, 3), amp, max_size=4)) for lab in labels})


@settings(max_examples=50, deadline=None)
@given(dict_states())
def test_from_columns_rebuilds_dict_states(state):
    assert_columns_rebuild(state)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_from_columns_rebuilds_recorded_states(case):
    program, bindings, init = case
    try:
        state = run_pr(program, bindings, init)
    except ValueError:
        return  # the recording map is undefined on this program
    assert_columns_rebuild(state)


def test_from_columns_sorts_each_relation():
    # pairs out of order with a gap, and out of order at the first position
    # only: the label is the Rel of the present pairs
    for x, y, on, rel in (
        ([5, 9, 1], [2, 9, 3], [True, False, True], [(1, 3), (5, 2)]),
        ([4, 1, 9], [0, 5, 9], [True, True, False], [(1, 5), (4, 0)]),
    ):
        cols = (np.array([x]), np.array([y]), np.array([on]))
        state = PurifiedState.from_columns(1, [cols, np.array([4])], [0], [1], np.ones(1, dtype=complex))
        assert state.labels() == [(Rel(rel), 4)]
        assert pair_columns(state, 0)[2].tolist() == [[True, True, False]]


@pytest.mark.parametrize(
    "slot,kind",
    [
        ((np.array([[2**31]]), np.array([[0]]), True), "Rel"),
        ((np.array([[0]]), np.array([[2**31]]), True), "Rel"),
        ((np.array([[-1]]), np.array([[0]]), True), "Rel"),
        (np.array([2**62]), "int"),
        (np.array([-(2**62)]), "int"),
    ],
)
def test_from_columns_refuses_values_that_do_not_pack(slot, kind):
    with pytest.raises(ValueError, match=f"label slot 1 cannot hold a {kind}:"):
        PurifiedState.from_columns(1, [np.zeros(1, dtype=np.int64), slot], [0], [0], np.ones(1, dtype=complex))


@pytest.mark.parametrize("chunk", [None, 7])
def test_good_mass_is_projected_norm(stress_state, monkeypatch, chunk):
    # labels whose U relation holds a fixed point (x, x): 9,408 of 75,264
    x, y, on = pair_columns(stress_state, 1)
    fixed_point = np.any(on & (x == y), axis=1)
    assert fixed_point.sum() == 9408

    if chunk is not None:
        monkeypatch.setattr(relstate, "_ENTRY_CHUNK", chunk)
    mass = stress_state.norm_sq(fixed_point)
    assert 0.0 < mass < stress_state.norm_sq()
    assert mass == project_good(stress_state, fixed_point).norm_sq()


def test_reduce_view_peak_is_bounded(stress_state):
    # one run of whole labels and one pair chunk: about 0.66 MB on this state
    # (2.4 MB with runs and chunks of 2^14); sorting the whole 8.4 MB state at
    # once needs about 9.8 MB
    _, peak = traced_peak(lambda: reduce_view(stress_state, KEEP))
    assert peak < 1.09e6


def test_recording_step_peak_is_input_plus_output(monkeypatch):
    steps, pr_apply = [], harness.pr_apply

    def traced(state, *args, **kwargs):
        out, peak = traced_peak(lambda: pr_apply(state, *args, **kwargs))
        steps.append((peak, nbytes(state) + nbytes(out)))
        return out

    monkeypatch.setattr(harness, "pr_apply", traced)
    keyed_stress_state()
    # the last oracle query: 12,544 labels in, 75,264 out; about 1.16x here,
    # and about 1.86x with sorted entry copies and a second label table
    peak, size = steps[-1]
    assert size > 9e6
    assert peak < 1.5 * size


def test_keyed_isometry_checks_leave_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma, about 1.2 MB of resident memory
    # that no experiment needs
    code = (
        "import sys; from qhrolab.experiments import run_experiment; "
        "run_experiment('exp_pru1', {'seed': 3, 'trials': 20}); "
        "run_experiment('exp_split_augment', {'seed': 9}); "
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(relstate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip() == "False"
