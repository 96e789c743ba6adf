"""Seeded trials run as byte-bounded stacks, bitwise whatever the stack bound.

Each seeded trial loop that harness.trial_stacks cuts (exp_pru1 break mode,
exp_spru's second-moment check and attacks.rank_projector_attack) runs at
the module's stack bound and with one trial per stack, which is the order of
a per-trial loop, and the two runs must agree bit for bit. Each of these
loops and haar_view_mc's frees a stack before it draws the next.
"""

import gc
import hashlib
import weakref

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


# ------------------------------------------------- a stack dies before the next is drawn
# Every trial loop drops a stack's arrays and generators before it builds the
# next stack's generators, so a run holds one stack at a time.

GENERATOR_SLACK = 2  # generators a run holds outside its stacks: exp_spru's zero-key and probe generators


def live_generators():
    """The np.random.Generator objects alive now (they are gc-tracked; they take no weakrefs)."""
    return sum(isinstance(o, np.random.Generator) for o in gc.get_objects())


class StackLives:
    """Spies that cut a run into its stacks and check what each leaves behind.

    A stack opens at the first draw after harness.trial_rng has built a
    generator. There every array that the spies saw in the previous stack must
    be dead, and the generators alive beyond those alive before the run number
    at most the stack's own plus GENERATOR_SLACK; before a stack's first
    generator is built, at most GENERATOR_SLACK."""

    def __init__(self, monkeypatch):
        self.mp = monkeypatch
        self.stacks = []  # per stack: its size and weakrefs to the arrays the spies saw
        self.building = False
        self.before = live_generators()
        trial_rng = harness.trial_rng

        def spy(*args):
            if not self.building:
                self.building = True
                assert self.generators() <= GENERATOR_SLACK, "the previous stack's generators outlive it"
            return trial_rng(*args)

        monkeypatch.setattr(harness, "trial_rng", spy)

    def generators(self):
        return live_generators() - self.before

    def keep(self, obj):
        """obj, after a weakref to each array in it (and to the arrays they view) joins the open stack."""
        if isinstance(obj, (tuple, list)):
            for x in obj:
                self.keep(x)
        elif isinstance(obj, dict):
            self.keep(list(obj.values()))
        elif isinstance(obj, np.ndarray) and self.stacks:
            self.stacks[-1][1].append(weakref.ref(obj))
            self.keep(obj.base)
        return obj

    def opening(self, f):
        """f(..., rngs) as the draw that opens a stack, keeping what it returns."""

        def spy(*args):
            if self.building:
                self.building = False
                if self.stacks:
                    alive = sum(ref() is not None for ref in self.stacks[-1][1])
                    assert alive == 0, f"{alive} arrays of stack {len(self.stacks) - 1} outlive it"
                assert self.generators() <= len(args[-1]) + GENERATOR_SLACK
                self.stacks.append((len(args[-1]), []))
            return self.keep(f(*args))

        return spy

    def spy(self, module, name, opens=False, arg=None):
        """Spy on module.name: keep what it returns (and its argument `arg`); with opens, as the opening draw."""
        f = getattr(module, name)

        def seen(*args):
            if arg is not None:
                self.keep(args[arg])
            return self.keep(f(*args))

        self.mp.setattr(module, name, self.opening(seen) if opens else seen)


def mc_loop(lives):
    lives.spy(harness, "run_concrete")
    lives.spy(harness, "_pure_views")
    sampler = lives.opening(lambda rngs: {"U": haar_unitaries(4, rngs)})
    harness.haar_view_mc(bounds._generic_program(2, 2), sampler, 1200, 1)


def pru1_break_loop(lives):
    lives.spy(keyed, "haar_unitaries", opens=True)
    lives.spy(keyed, "choi_state")
    lives.spy(attacks, "choi_from_copies")
    lives.spy(attacks, "swap_or_attack", arg=1)  # a view of the stack's candidates
    run_experiment("exp_pru1", {"seed": 3, "mode": "break", "n": 2, "lam": 1, "trials": 130})


def spru_loop(lives):
    lives.spy(bounds, "haar_unitaries", opens=True)
    run_experiment("exp_spru", {"seed": 8, "trials": 12})


def rank_projector_loop(lives):
    lives.spy(attacks, "haar_unitaries", opens=True)
    lives.spy(attacks, "choi_state")
    lives.spy(attacks, "_kron_stack")
    a_k, b_k = (np.array([pauli_string(kind, k, 1, 1) for k in range(2)]) for kind in "XZ")
    rank_projector_attack(1, 1, 1, 3, a_k, b_k, 60, 123)


@pytest.mark.parametrize("loop", [mc_loop, pru1_break_loop, spru_loop, rank_projector_loop])
def test_a_stack_dies_before_the_next_is_drawn(loop, monkeypatch):
    lives = StackLives(monkeypatch)
    loop(lives)
    sizes = [size for size, _ in lives.stacks]
    # three stacks or more, and a stack of more than one trial: each check can fail
    assert len(sizes) >= 3 and max(sizes) > 1, sizes
    assert all(refs for _, refs in lives.stacks)
