#!/usr/bin/env python3
"""Write perfbench/pinned.json: the reference check lists and report digests.

Usage, from the repository root, at the commit that defines the reference:

    python3 perfbench/pin.py

For every workload and seed offset 0..POOL_SIZE-1 it runs the pass once
and stores, per report, the (check name, kind, verdict) list and the
SHA-256 of the JSON report. A report that fails stops the script: every
pool entry must pass at the reference commit.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from qhrolab.experiments import run_experiment  # noqa: E402


def pin_entry(workload, offset):
    reports = []
    for name, params in workloads.runs_for(workload, offset):
        report = run_experiment(name, params)
        if not report.passed:
            raise ValueError(f"{name} {params} did not pass")
        checks = [[c["name"], c["kind"], c["passed"]] for p in report.grid for c in p["checks"]]
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        reports.append({"experiment": name, "seed": params["seed"], "checks": checks, "sha256": digest})
    return {"offset": offset, "reports": reports}


def main():
    pool = {}
    for workload in workloads.WORKLOADS:
        pool[workload] = [pin_entry(workload, offset) for offset in range(workloads.POOL_SIZE)]
        print(workload, "pinned", flush=True)
    (HERE / "pinned.json").write_text(json.dumps({"pool": pool}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
