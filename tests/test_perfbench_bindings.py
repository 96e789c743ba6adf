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


def test_sweep_bootstrap_on_a_list_is_the_full_matrix_formula():
    # the sweep passes 20 distinct pure-state views and one reference; its
    # stderr is bitwise the full-matrix bootstrap: copy row idx[0], add the
    # rest in order, divide, then eigvalsh(mean - ref)
    rng = linalg.trial_rng(5)
    views = []
    for _ in range(20):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        views.append(linalg.StateVector(v / np.linalg.norm(v), 4).density())
    ref, seed = views[0], 3
    draw = linalg.trial_rng(seed, 10**9)
    vals = []
    for _ in range(harness._RESAMPLES):
        idx = draw.integers(0, len(views), size=len(views))
        mean = views[idx[0]].entries.copy()
        for i in idx[1:]:
            mean += views[i].entries
        mean /= len(idx)
        vals.append(0.5 * np.sum(np.abs(np.linalg.eigvalsh(mean - ref.entries))))
    want = float(np.std(vals))
    assert want > 0.0
    assert harness.bootstrap_td_stderr(views, ref, seed) == want
