"""Desk-scale layer sweep: per-call cost of each core layer at 2 to 8 qubits.

Runs outside the timed workloads. Metric names are `sweep.<layer>.q<n>.us`;
the recording map and the view reduction are given per stored entry.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SIZES = (2, 4, 6, 8)
LAYERS = ("gate_full", "gate_2q", "haar_unitary", "pr_apply", "reduce_view", "bootstrap_td_stderr", "cf_count")
BUDGET_S = 0.15  # timing budget per (layer, size) after calibration


def metric_names():
    return [f"sweep.{layer}.q{q}.us" for layer in LAYERS for q in SIZES]


def per_call_us(fn):
    """Median microseconds per call over up to five batches."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = time.perf_counter() - t0
        if dt >= 0.002:
            break
        reps *= 4
    samples = [dt / reps]
    for _ in range(min(4, int(BUDGET_S / dt))):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


def _cf_strings(relstate, q, params):
    """The first three strings (in index order) that stay collision-free."""
    strings = []
    for y in range(2**q):
        if relstate.is_collision_free(strings + [y], params):
            strings.append(y)
            if len(strings) == 3:
                break
    return tuple(strings)


def run(seed):
    from qhrolab import harness, linalg, relstate

    rng = linalg.trial_rng(seed, 0)
    out = {}
    for q in SIZES:
        dim = 2**q
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = linalg.StateVector(amps / np.linalg.norm(amps), q)
        u_full = linalg.haar_unitary(dim, rng)
        u_2q = linalg.haar_unitary(4, rng)
        out[f"sweep.gate_full.q{q}.us"] = per_call_us(lambda: linalg.apply_unitary(state, u_full))
        out[f"sweep.gate_2q.q{q}.us"] = per_call_us(lambda: linalg.apply_unitary(state, u_2q, [0, q - 1]))
        out[f"sweep.haar_unitary.q{q}.us"] = per_call_us(lambda: linalg.haar_unitary(dim, rng))

        # one relation label holding up to 8 basis entries; a query fans
        # each entry out to every fresh output
        width = min(dim, 8)
        pur = relstate.PurifiedState(q, {(relstate.Rel(),): {i: width**-0.5 + 0j for i in range(width)}})
        recorded = relstate.pr_apply(pur, 0, list(range(q)), dim)
        entries = recorded.entry_count()
        out[f"sweep.pr_apply.q{q}.us"] = (
            per_call_us(lambda: relstate.pr_apply(pur, 0, list(range(q)), dim)) / entries
        )
        out[f"sweep.reduce_view.q{q}.us"] = per_call_us(lambda: harness.reduce_view(recorded)) / entries

        views = []
        for _ in range(20):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            views.append(linalg.StateVector(v / np.linalg.norm(v), q).density())
        ref = views[0]
        out[f"sweep.bootstrap_td_stderr.q{q}.us"] = per_call_us(
            lambda: harness.bootstrap_td_stderr(views, ref, seed)
        )

        params = relstate.CFParams(2, max(1, q // 2), q)
        strings = _cf_strings(relstate, q, params)
        out[f"sweep.cf_count.q{q}.us"] = per_call_us(lambda: relstate.cf_count(strings, params))
    return out
