#!/usr/bin/env python3
"""Acceptance-scale timing of every registered experiment, end to end.

Usage, from the repository root:

    python3 tools/bench_acceptance.py --out BENCH_13.json parent=../parent change=.

Each LABEL=PATH names a source tree (a checkout of the repository). Every
experiment run of tests/test_acceptance.py runs at that test's parameters
in its own fresh interpreter, REPEATS times per tree; then the tree's
Tier-1 suite runs once per repeat. Within a repeat the trees alternate,
and the first tree of each repeat rotates, so both sides of a comparison
see the same machine load in one session. Per run it records the minimum
and spread (max - min) of:

- wall time, from spawn to exit, so it includes interpreter start-up and
  imports;
- CPU time, user plus system, of the child;
- peak RSS of the child, from the rusage that os.wait4 returns for it (the
  per-child form of getrusage(RUSAGE_CHILDREN));

plus the SHA-256 of the report and whether it passed (for Tier-1, the
summary line of the last repeat), each tree's commit (`git describe
--dirty`), and the machine facts. A ratio between two trees counts only
within one file.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy

REPEATS = 3

# (criterion, experiment, params): the experiment runs of tests/test_acceptance.py,
# kept equal to its run_experiment calls by tests/test_bench_acceptance.py
RUNS = (
    ("02", "exp_mh_bound", {"seed": 11}),
    ("03", "exp_pru2", {"seed": 7, "n_list": [3], "trials": 3000}),
    ("04", "exp_pru1", {"seed": 3, "trials": 400}),
    ("05", "exp_pru1", {"seed": 3, "mode": "break", "trials": 300}),
    ("07", "exp_cf_bound", {"seed": 3}),
    ("10", "exp_prs", {"seed": 3}),
    ("10", "exp_prfs", {"seed": 3}),
    ("11", "exp_split_augment", {"seed": 9}),
    ("11", "exp_spru", {"seed": 9, "trials": 300}),
)

CHILD = """
import hashlib, json, sys
from qhrolab.experiments import run_experiment
rep = run_experiment(sys.argv[1], json.loads(sys.argv[2]))
print(json.dumps({"sha256": hashlib.sha256(rep.to_json().encode()).hexdigest(), "passed": rep.passed}))
"""

TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def measure(cmd, tree):
    """(wall s, cpu s, peak RSS MB, exit code, stdout) of one child process."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, out


def summary(samples):
    return {"min": round(min(samples), 4), "spread": round(max(samples) - min(samples), 4), "samples": [round(s, 4) for s in samples]}


def commit_of(tree):
    res = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"], capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def machine():
    cpu = None
    if Path("/proc/cpuinfo").exists():
        found = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = found.group(1) if found else None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
    }


def bench(trees):
    raw = {label: {} for label in trees}
    for r in range(REPEATS):
        order = list(trees)[r % len(trees) :] + list(trees)[: r % len(trees)]
        for crit, name, params in RUNS + (("tier1", None, None),):
            for label in order:
                tree = trees[label]
                cmd = [sys.executable, *TIER1] if name is None else [sys.executable, "-c", CHILD, name, json.dumps(params)]
                wall, cpu, rss, code, out = measure(cmd, tree)
                key = "tier1" if name is None else f"criterion_{crit} {name} {json.dumps(params, sort_keys=True)}"
                rec = raw[label].setdefault(key, {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "exit": []})
                for field, value in (("wall_s", wall), ("cpu_s", cpu), ("peak_rss_mb", rss), ("exit", code)):
                    rec[field].append(value)
                if name is None:
                    rec["result"] = out.strip().splitlines()[-1] if out.strip() else None
                elif code == 0:
                    rec.update(json.loads(out))
                print(f"repeat {r} {label:>8} {key[:60]:<60} {wall:8.2f} s {rss:7.1f} MB exit {code}", flush=True)
    out = {}
    for label, runs in raw.items():
        entry = {"commit": commit_of(trees[label]), "runs": {}}
        for key, rec in runs.items():
            done = {f: summary(rec[f]) for f in ("wall_s", "cpu_s", "peak_rss_mb")}
            done["exit_codes"] = rec["exit"]
            done.update({k: rec[k] for k in ("sha256", "passed", "result") if k in rec})
            entry["runs"][key] = done
        entry["tier1_total_s"] = entry["runs"]["tier1"]["wall_s"]["min"]
        entry["acceptance_total_s"] = round(sum(v["wall_s"]["min"] for k, v in entry["runs"].items() if k != "tier1"), 4)
        out[label] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", metavar="LABEL=PATH", help="source trees to measure")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    trees = {}
    for spec in args.trees:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "src" / "qhrolab").is_dir():
            ap.error(f"{spec!r} is not LABEL=PATH of a source tree")
        trees[label] = Path(path).resolve()
    result = {"machine": machine(), "repeats": REPEATS, "trees": bench(trees)}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
