#!/usr/bin/env python3
"""Report digests of a fixed set of runs, to show that a change keeps every report byte-identical.

Usage, from the repository root of each tree:

    python3 tools/report_digests.py --out digests.json
    python3 tools/report_digests.py --compare parent.json change.json

--out runs, one after another in this process, against the tree the tool
sits in:

- every perfbench workload at pool offsets 0-31 (perfbench/workloads.runs_for);
- the acceptance runs of tools/bench_acceptance.RUNS;
- exp_pru1 break mode at seeds 3-7;
- secure exp_pru1 at fold 2 and fold 3, (ell, t, lam) = (2, 3, 3) and (3, 4, 3),
  and at ell = 0 (t = 2), which records collision-free outputs beside an int key;
- secure exp_pru1 at n = lam = 5 and exp_pru2 at n = lam = 4, whose X and Z key
  layers are wider than the 3 bits of every other run;
- exp_split_augment at seed 2^70, past the 64 bits of every other seed;

and writes, per run, the SHA-256 of the report's to_json() and its
(check, kind, verdict) list, and under "environment" the numpy version, its
BLAS library, the *_NUM_THREADS variables and the CPU count: a report can
differ in its last bit across BLAS builds and thread counts. --compare says
which environment entries differ, lists every run whose entry differs or
that only one file holds, and exits 1 if there is such a run.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tools")]


def runs():
    """(key, experiment, params) of every run, in run order."""
    from bench_acceptance import RUNS
    from perfbench.workloads import POOL_SIZE, WORKLOADS, runs_for

    out = []
    for workload in WORKLOADS:
        for offset in range(POOL_SIZE):
            out += [(f"{workload}/{offset}", name, params) for name, params in runs_for(workload, offset)]
    out += [(f"criterion_{crit}", name, params) for crit, name, params in RUNS]
    out += [("break", "exp_pru1", {"seed": seed, "mode": "break"}) for seed in range(3, 8)]
    secure = [{"ell": 2, "t": 3, "lam": 3}, {"ell": 3, "t": 4, "lam": 3}, {"ell": 0, "t": 2}]
    out += [("secure", "exp_pru1", {"seed": 3, **params, "trials": 50}) for params in secure]
    out += [("secure", "exp_pru1", {"seed": 3, "n": 5, "t": 2, "ell": 1, "trials": 50})]
    out += [("secure", "exp_pru2", {"seed": 7, "n_list": [4], "trials": 50})]
    out += [("wide_seed", "exp_split_augment", {"seed": 2**70})]
    return [(f"{key} {name} {json.dumps(params, sort_keys=True)}", name, params) for key, name, params in out]


def digests():
    from qhrolab.experiments import run_experiment

    out = {}
    for key, name, params in runs():
        rep = run_experiment(name, params)
        checks = [[c["name"], c["kind"], c["passed"]] for entry in rep.grid for c in entry["checks"]]
        out[key] = {"sha256": hashlib.sha256(rep.to_json().encode()).hexdigest(), "checks": checks}
    return out


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "cpu_count": os.cpu_count(),
    }


def compare(old, new):
    """The sorted keys whose entries differ, or that only one side holds."""
    return sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE", help="JSON file to write the digests to")
    group.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="two digest files to compare")
    args = ap.parse_args(argv)
    if args.out:
        out = {"environment": environment(), **digests()}
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        return 0
    old, new = (json.loads(Path(p).read_text()) for p in args.compare)
    # a file written before the environment was recorded has none
    env_old, env_new = (d.pop("environment", {}) for d in (old, new))
    for key in compare(env_old, env_new):
        print(f"environment differs: {key}: {env_old.get(key)!r} -> {env_new.get(key)!r}")
    differ = compare(old, new)
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(old.keys() | new.keys())} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
