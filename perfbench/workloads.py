"""The benchmark's four workloads and their pinned seed pool.

A pass runs one workload's experiments once, in order, through
`qhrolab.experiments.run_experiment` with `jobs` left at its default of 1.
Pool entry j shifts every experiment seed of the pass by j; entry 0 uses
the acceptance seeds. Sizes sit below the acceptance-test sizes so that one
pass takes one to three seconds on a 2-vCPU machine and a timed run holds
many passes, whose medians it reports.
"""

WORKLOADS = {
    # Haar Monte Carlo on 2- to 4-qubit registers: per-call overhead in
    # linalg and in the harness MC loop; the recording engine is idle.
    "mc": (
        ("exp_mh_bound", {"seed": 11, "trials": 2000}),
    ),
    # Exact recording oracles for classical-query state and function-state
    # generators at n=3 (9-qubit registers, 64x64 views): pr_apply, then
    # reduce_view, lead; s=3 oracle queries keep the fixed-cost bootstrap
    # of the MC cross-check the minor part.
    "record": (
        ("exp_prs", {"seed": 3, "n": 3, "lam": 3, "s": 3, "scaling": False, "trials": 200}),
        ("exp_prfs", {"seed": 3, "n": 3, "lam": 2, "scaling": False, "trials": 200}),
    ),
    # Collision-free counting only: no purified states and no linalg.
    "cf": (
        ("exp_cf_bound", {"seed": 3, "n_max": 6, "exhaustive_cap": 5000, "samples": 150}),
    ),
    # Keyed constructions: the only workload that reaches attacks, the
    # key-controlled Pauli layers, pcfpr_apply, label surgery and
    # constructions.concrete_oracle.
    "keyed": (
        ("exp_pru1", {"seed": 3, "mode": "break", "trials": 100}),
        ("exp_pru1", {"seed": 3, "trials": 500}),
        ("exp_pru2", {"seed": 7, "n_list": [3], "trials": 500}),
        ("exp_split_augment", {"seed": 9}),
    ),
}

POOL_SIZE = 32  # seed offsets 0..POOL_SIZE-1 are pinned in pinned.json


def runs_for(workload, offset):
    """(experiment name, params) for every experiment of one pass."""
    return [(name, {**params, "seed": params["seed"] + offset}) for name, params in WORKLOADS[workload]]
