"""Negative controls: each keyed experiment run with its key removed.

Every test patches a construction where the experiment reads it, runs the
experiment at small parameters and asserts the exact set of checks that
fail. The sets pin what each experiment's checks can see: a change that
blinds a check, or one that lets a security check see the missing key,
shows up as a changed set. Unpatched, every run here passes all its checks.
"""

import pytest

from qhrolab import bounds, constructions, keyed
from qhrolab.constructions import OracleDescriptor
from qhrolab.experiments import run_experiment

PRU2 = ("exp_pru2", {"seed": 7, "n_list": [3], "trials": 300})
PRS = ("exp_prs", {"seed": 3, "n": 3, "lam": 1, "t": 1, "s": 1, "trials": 300})
PRFS = ("exp_prfs", {"seed": 3, "n": 3, "lam": 1, "m_in": 1, "t": 1, "trials": 300})
PRU1 = ("exp_pru1", {"seed": 3, "trials": 200})


def failing(name, params):
    rep = run_experiment(name, params)
    return {c["name"] for entry in rep.grid for c in entry["checks"] if not c["passed"]}


@pytest.mark.parametrize("run", [PRU2, PRS, PRFS, PRU1], ids=lambda run: run[0])
def test_unpatched_runs_pass(run):
    assert failing(*run) == set()


def test_pru2_without_key_layer(monkeypatch):
    # U U in place of U (X^k tensor I) U: no check of exp_pru2 sees the missing key
    monkeypatch.setattr(
        keyed, "pru_two_query", lambda n, lam: OracleDescriptor(n=n, lam=lam, steps=(("pr", 0, None), ("pr", 0, None)))
    )
    assert failing(*PRU2) == set()


@pytest.mark.parametrize("run", [PRS, PRFS], ids=lambda run: run[0])
def test_prs_prfs_with_key_read_as_zero(monkeypatch, run):
    key_input = constructions.prfs_input
    for module in (constructions, bounds):
        monkeypatch.setattr(module, "prfs_input", lambda k, w, n, lam, m: key_input(k * 0, w, n, lam, m))
    assert failing(*run) == {"good_pair_mass", "td_strictly_decreasing_in_lam"}


def test_pru1_without_key_phase(monkeypatch):
    # U in place of (Z^k tensor I) U, with the collision-free recording kept
    monkeypatch.setattr(
        keyed, "pru_one_query", lambda n, lam, cf=None: OracleDescriptor(n=n, lam=lam, steps=(("pr", 0, cf),))
    )
    assert failing(*PRU1) == {"isometry_state_match", "td_hybrid2_vs_hybrid3"}
