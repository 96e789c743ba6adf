"""Seeded trials run as byte-bounded stacks, bitwise whatever the stack bound.

Each seeded trial loop that harness.trial_stacks cuts (exp_pru1 break mode,
exp_spru's second-moment check and attacks.rank_projector_attack) runs at
the module's stack bound and with one trial per stack, which is the order of
a per-trial loop, and the two runs must agree bit for bit.
"""

import hashlib

import numpy as np
import pytest

from qhrolab import attacks, bounds, harness, keyed
from qhrolab.attacks import rank_projector_attack, swap_or_attack
from qhrolab.experiments import run_experiment
from qhrolab.linalg import choi_state, haar_unitaries, pauli_string, trial_rng


@pytest.fixture(params=["module bound", "one trial per stack"])
def stacks(request, monkeypatch):
    """stacks(f) is f() at the other of the two stack bounds, harness._STACK_BYTES
    at the module's bound or at 1. The test's own calls run at this
    parameter's bound, and the Haar stacks they draw must hold more than one
    trial, or exactly one."""
    stack_bytes = [harness._STACK_BYTES, 1]
    if request.param == "one trial per stack":
        stack_bytes.reverse()
    monkeypatch.setattr(harness, "_STACK_BYTES", stack_bytes[0])
    sizes = []

    def spy(dim, rngs):
        sizes.append(len(rngs))
        return haar_unitaries(dim, rngs)

    modules = (keyed, bounds, attacks)
    for module in modules:
        monkeypatch.setattr(module, "haar_unitaries", spy)

    def at_other_bound(f):
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_STACK_BYTES", stack_bytes[1])
            for module in modules:
                mp.setattr(module, "haar_unitaries", haar_unitaries)
            return f()

    yield at_other_bound
    assert sizes and sizes[0] == 1
    assert max(sizes) > 1 if request.param == "module bound" else set(sizes) == {1}


def digest(name, params):
    return hashlib.sha256(run_experiment(name, params).to_json().encode()).hexdigest()


# lam = 1 with two tests per key leaves every search's outcome to its draws
@pytest.mark.parametrize("params", [{"seed": 3}, {"seed": 4}, {"seed": 5, "n": 2, "lam": 1, "copies_per_key": 2}])
def test_pru1_break_is_bitwise_the_per_trial_loop(params, stacks, monkeypatch):
    params = {**params, "mode": "break", "trials": 30}

    def run():
        """The report's digest, and every search's fidelities and successes by (trial, search)."""
        calls = []

        def spy(*args):
            calls.append(swap_or_attack(*args))
            return calls[-1]

        with monkeypatch.context() as mp:
            mp.setattr(attacks, "swap_or_attack", spy)
            sha = digest("exp_pru1", params)
        # each stack makes four searches: (arm, real / null oracle) in turn
        fids = np.concatenate([np.stack([f.T for f, _ in calls[i : i + 4]], axis=1) for i in range(0, len(calls), 4)])
        won = np.concatenate([np.stack([w for _, w in calls[i : i + 4]], axis=1) for i in range(0, len(calls), 4)])
        return sha, fids, won

    sha, fids, won = run()
    other_sha, other_fids, other_won = stacks(run)
    assert sha == other_sha
    assert fids.shape[:2] == won.shape == (30, 4)
    assert fids.tobytes() == other_fids.tobytes()
    assert won.tobytes() == other_won.tobytes()
    assert 0 < np.mean(won) < 1


@pytest.mark.parametrize("trials", [5, 16])
def test_spru_is_bitwise_the_per_trial_loop(trials, stacks):
    params = {"seed": 8, "trials": trials}
    assert digest("exp_spru", params) == stacks(lambda: digest("exp_spru", params))


@pytest.mark.parametrize("trials", [30, 301])
def test_rank_projector_attack_is_bitwise_the_per_trial_loop(trials, stacks):
    a_k, b_k = (np.array([pauli_string(kind, k, 1, 1) for k in range(2)]) for kind in "XZ")

    def run():
        return np.array(list(rank_projector_attack(1, 1, 1, 3, a_k, b_k, trials, 123).values()))

    assert run().tobytes() == stacks(run).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_choi_state_of_a_stack_is_bitwise_each_matrix(n):
    us = haar_unitaries(2**n, [trial_rng(7, t) for t in range(5)])
    stack = choi_state(us)
    assert stack.shape == (5, 4**n)
    for u, vec in zip(us, stack):
        assert vec.tobytes() == choi_state(u).tobytes()
