"""perfbench/ reaches qhrolab by name: its traced layers and its sweep's calls must still bind.

A refactor that deletes or renames a traced function fails here, instead of
leaving a benchmark layer that quietly reads 0.
"""

import importlib.util
from pathlib import Path

import numpy as np

import qhrolab.experiments  # noqa: F401  loads every module the tracer wraps
from qhrolab import harness, linalg, relstate

ROOT = Path(__file__).resolve().parents[1]

# LAYERS entries of perfbench/tracer.py that name no function of the package
ABSENT = {
    "qhrolab.relstate.pcfpr_apply",
    "qhrolab.relstate.key_slot_hadamard",
    "qhrolab.relstate.partition_by_key",
    "qhrolab.relstate.merge_partition",
    "qhrolab.relstate.apply_injection",
    "qhrolab.relstate.pair_multisets",
    "qhrolab.constructions.prs_output",
}


def test_tracer_layers_bind():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        absent = set(tracer.absent)
    finally:
        tracer.uninstall()
    assert absent == ABSENT
    assert not hasattr(harness.run_concrete, "__wrapped__")


def test_sweep_positional_calls_bind():
    # the calls of perfbench/sweep.py, with its argument order
    state = linalg.StateVector(np.full(4, 0.5, dtype=complex), 2)
    pur = relstate.PurifiedState(2, {(relstate.Rel(),): {0: 1.0 + 0j}})
    assert (state.qubit_count, pur.n_qubits) == (2, 2)
    views = [state.density()] * 3
    assert harness.bootstrap_td_stderr(views, views[0], 0) == 0.0
