"""The array recording engine against the dict-of-dicts reference engine.

Random small programs and the purified part of every experiment run on both
engines; states and views must agree to 1e-12.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dict_engine
from qhrolab import experiments, harness, relstate
from qhrolab.constructions import haar_slot, pru_one_query, pru_two_query
from qhrolab.harness import (
    AdversaryProgram,
    ClassicalPROracle,
    ClassicalQuery,
    KeyInit,
    QuantumQuery,
    haar_interleave,
    phased_permutation_interleave,
)
from qhrolab.linalg import trial_rng
from qhrolab.relstate import CFParams, Rel

TOL = 1e-12


def amplitude_map(state):
    return {(lab, i): a for lab, vec in state.terms.items() for i, a in vec.items()}


def amplitude_gap(a, b):
    ma, mb = amplitude_map(a), amplitude_map(b)
    return max((abs(ma.get(k, 0) - mb.get(k, 0)) for k in set(ma) | set(mb)), default=0.0)


# ------------------------------------------------------------ random programs

# slots: 0 and 1 relations, 2 the key, 3 a per-w family, 4 a transcript
INIT_SLOTS = (Rel(), Rel(), None, (Rel(), Rel()), ())

CLASSICAL_MODES = {
    "slot": dict(rel_slot=0),
    "global": dict(rel_slot=0, avoid="global", avoid_slots=(1,)),
    "per_w": dict(rel_slot=3, avoid="per_w"),
    "per_w_global": dict(rel_slot=3, avoid="per_w_global", avoid_slots=(1,)),
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
        return dataclasses.replace(pru_two_query(n, lam, slot=0), key_slot=2)
    if kind == "one_query_cf":
        return dataclasses.replace(pru_one_query(n, lam, slot=0, cf=cf), key_slot=2)
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
    for j in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(STEP_KINDS))
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
            bindings[f"C{j}"] = ClassicalPROracle(
                n=1,
                input_of=lambda k, w, s=shift: (k + w + s) % 4,
                key_slot=draw(st.sampled_from([2, None])),
                transcript_slot=4,
                **CLASSICAL_MODES[mode],
            )
            steps.append(ClassicalQuery(f"C{j}", w))
            reg += 1
        else:
            bindings[f"Q{j}"] = descriptor(kind, n, lam, fold, prefix)
            steps.append(QuantumQuery(f"Q{j}", tuple(range(n))))
    init = tuple(KeyInit(lam) if s is None else s for s in INIT_SLOTS)
    return AdversaryProgram(n=n, steps=tuple(steps)), bindings, init


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_random_programs_match_dict_engine(case):
    program, bindings, init = case
    try:
        ref = dict_engine.run_pr(program, bindings, init)
    except ValueError:
        with pytest.raises(ValueError):
            harness.run_pr(program, bindings, init)
        return
    out = harness.run_pr(program, bindings, init)
    assert out.n_qubits == ref.n_qubits
    assert out.label_count() == ref.label_count()
    assert out.entry_count() == ref.entry_count()
    assert amplitude_gap(out, ref) <= TOL
    assert abs(out.norm_sq() - 1.0) <= 1e-9
    keep = list(range(min(out.n_qubits, 3)))
    gap = np.abs(harness.reduce_view(out, keep).reduced.entries - dict_engine.reduce_view(ref, keep).reduced.entries)
    assert gap.max() <= TOL


def test_surgery_matches_dict_engine():
    prog = AdversaryProgram(n=2, steps=(haar_interleave(2, trial_rng(5)), QuantumQuery("G"), QuantumQuery("G")))
    desc = dataclasses.replace(pru_two_query(2, 2, slot=0), key_slot=1)
    arr = harness.run_pr(prog, {"G": desc}, (Rel(), KeyInit(2)))
    ref = dict_engine.run_pr(prog, {"G": desc}, (Rel(), KeyInit(2)))
    assert amplitude_gap(relstate.key_slot_hadamard(arr, 1, 2), dict_engine.key_slot_hadamard(ref, 1, 2)) <= TOL

    def good(lab):
        return len(relstate.corx(lab[0], lab[1])) >= 1

    assert amplitude_gap(relstate.project_good(arr, good), dict_engine.project_good(ref, good)) <= TOL

    def split(lab):
        return (Rel(lab[0].pairs[:1]), Rel(lab[0].pairs[1:]), lab[1])

    assert amplitude_gap(relstate.label_rewrite(arr, split), dict_engine.label_rewrite(ref, split)) <= TOL
    merged = relstate.label_rewrite(arr, lambda lab: (lab[1],), check_injective=False)
    assert amplitude_gap(merged, dict_engine.label_rewrite(ref, lambda lab: (lab[1],), check_injective=False)) <= TOL
    with pytest.raises(ValueError):
        relstate.label_rewrite(arr, lambda lab: (lab[1],))
    assert abs(arr.inner(arr) - ref.inner(ref)) <= TOL
    assert arr.max_diff(arr.prune()) <= TOL


# ------------------------------------------------------------ experiments

ENGINE_FUNCTIONS = (
    "run_pr",
    "reduce_view",
    "project_good",
    "label_rewrite",
    "key_slot_hadamard",
    "partition_by_key",
    "pair_multisets",
    "apply_injection",
)

ARRAY_ENGINE = SimpleNamespace(
    PurifiedState=relstate.PurifiedState,
    run_pr=harness.run_pr,
    reduce_view=harness.reduce_view,
    **{name: getattr(relstate, name) for name in ENGINE_FUNCTIONS[2:]},
)


def snapshot(result):
    if hasattr(result, "reduced"):
        return ("view", result.reduced.entries)
    return ("state", result)


def run_on(engine, monkeypatch, name, params):
    """Run one experiment with every purified function taken from `engine`."""
    log = []

    def logged(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append(snapshot(out))
            return out

        return call

    with monkeypatch.context() as m:
        m.setattr(experiments, "PurifiedState", engine.PurifiedState)
        for fn_name in ENGINE_FUNCTIONS:
            m.setattr(experiments, fn_name, logged(getattr(engine, fn_name)))
        report = experiments.run_experiment(name, params)
    return report, log


SMALL = {"trials": 20}
EXPERIMENT_CASES = [
    # n = 2
    ("exp_mh_bound", {"seed": 11, "n_list": [2], **SMALL}),
    ("exp_pru2", {"seed": 7, "n_list": [2], **SMALL}),
    ("exp_pru1", {"seed": 3, "n": 2, "lam": 2, **SMALL}),
    ("exp_prs", {"seed": 3, "n": 2, "lam": 1, "scaling": False, **SMALL}),
    ("exp_prfs", {"seed": 3, "n": 2, "lam": 1, "scaling": False, **SMALL}),
    ("exp_split_augment", {"seed": 9, "n": 2}),
    # the benchmark's record and keyed workload sizes
    ("exp_prs", {"seed": 3, "n": 3, "lam": 3, "s": 3, "scaling": False, **SMALL}),
    ("exp_prfs", {"seed": 3, "n": 3, "lam": 2, "scaling": False, **SMALL}),
    ("exp_pru1", {"seed": 3, **SMALL}),
    ("exp_pru2", {"seed": 7, "n_list": [3], **SMALL}),
    ("exp_split_augment", {"seed": 9}),
]


@pytest.mark.parametrize("name,params", EXPERIMENT_CASES)
def test_experiment_builds_match_dict_engine(monkeypatch, name, params):
    rep_arr, log_arr = run_on(ARRAY_ENGINE, monkeypatch, name, params)
    rep_ref, log_ref = run_on(dict_engine, monkeypatch, name, params)
    assert [k for k, _ in log_arr] == [k for k, _ in log_ref]
    assert log_arr
    for (kind, a), (_, b) in zip(log_arr, log_ref):
        if kind == "view":
            assert np.abs(a - b).max() <= TOL
        else:
            assert a.entry_count() == b.entry_count()
            assert amplitude_gap(a, b) <= TOL
    checks_arr = [c for e in rep_arr.grid for c in e["checks"]]
    checks_ref = [c for e in rep_ref.grid for c in e["checks"]]
    assert [(c["name"], c["passed"]) for c in checks_arr] == [(c["name"], c["passed"]) for c in checks_ref]
    for ca, cb in zip(checks_arr, checks_ref):
        assert abs(ca["value"] - cb["value"]) <= TOL
