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
    # every call of perfbench/sweep.py's run(), with its argument order
    state = linalg.StateVector(np.full(4, 0.5, dtype=complex), 2)
    views = [state.density()] * 3
    assert harness.bootstrap_td_stderr(views, views[0], 0) == 0.0
    seed = 0
    rng = linalg.trial_rng(seed, 0)
    for q in (2, 4):
        dim = 2**q
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = linalg.StateVector(amps / np.linalg.norm(amps), q)
        u_full = linalg.haar_unitary(dim, rng)
        u_2q = linalg.haar_unitary(4, rng)
        full = linalg.apply_unitary(state, u_full)
        assert np.allclose(full.amplitudes, u_full.entries @ state.amplitudes)
        # the two-qubit gate on qubits 0 and q - 1: big-endian, qubit 0 leads
        two = linalg.apply_unitary(state, u_2q, [0, q - 1])
        psi = state.amplitudes.reshape(2, dim // 4, 2).transpose(0, 2, 1).reshape(4, -1)
        want = (u_2q.entries @ psi).reshape(2, 2, dim // 4).transpose(0, 2, 1).reshape(-1)
        assert np.allclose(two.amplitudes, want)
        assert linalg.haar_unitary(dim, rng).entries.shape == (dim, dim)

        width = min(dim, 8)
        pur = relstate.PurifiedState(q, {(relstate.Rel(),): {i: width**-0.5 + 0j for i in range(width)}})
        recorded = relstate.pr_apply(pur, 0, list(range(q)), dim)
        assert recorded.entry_count() == width * dim
        view = harness.reduce_view(recorded)
        assert view.qubit_count == q and abs(np.trace(view.entries) - 1.0) < 1e-12

        views = []
        for _ in range(20):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            views.append(linalg.StateVector(v / np.linalg.norm(v), q).density())
        ref = views[0]
        assert 0.0 < harness.bootstrap_td_stderr(views, ref, seed) < 1.0

        params = relstate.CFParams(2, max(1, q // 2), q)
        assert relstate.is_collision_free([0], params)
        assert relstate.cf_count((0,), params) > 0


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
