#!/usr/bin/env python3
"""qhrolab benchmark: closed-loop experiment passes with checked reports.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

One client in this process calls `qhrolab.experiments.run_experiment` on
the workload's experiments one after another (see workloads.py). After one
warm-up pass it repeats passes until `--seconds` have elapsed. Pass k uses
pinned seed-pool entry (seed + k) mod pool size, so the same seed gives the
same inputs.

Every report is checked: a run fails if it raises (the entry-cap
MemoryError included), if its report does not pass, or if its list of
(check name, kind, verdict) differs from the one pinned in pinned.json. A
report whose SHA-256 differs from the pinned digest is counted in
`experiments.reports_changed` and is not a failure, since a deliberate
numeric change may alter it.

With `--trace 0` the last stdout line holds the end-to-end metrics: peak
RSS and set-up time. With `--trace 1` it holds the per-layer metrics: the
layer sweep (sweep.py), then alternating untraced and traced passes of the
same inputs. The untraced passes give the per-pass wall and CPU time
(`run.wall_s`, `run.cpu_s`); their difference to the traced passes is the
tracing overhead. Both modes print per-pass time summaries. The results,
machine facts and per-pass samples included, go to .perfbench_out/, as do
the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_CORETYPE")

sys.path.insert(0, str(HERE))
import sweep  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------ set-up


def measure_setup():
    """Median seconds from spawning a fresh interpreter to qhrolab.experiments ready."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qhrolab.experiments; "
        "print('ready', flush=True); sys.stdin.read()"
    )
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(SRC)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("qhrolab.experiments failed to import in a fresh interpreter")
        if i:  # the first spawn also writes bytecode caches
            samples.append(dt)
    return statistics.median(samples)


def machine_facts():
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": None,
        "blas": None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "qhrolab_backend": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        facts["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    linalg = sys.modules.get("qhrolab.linalg")
    facts["qhrolab_backend"] = getattr(linalg, "BACKEND", None)
    return facts


# ------------------------------------------------------------------ passes


class Runner:
    """Runs passes of one workload and checks every report against the pins."""

    def __init__(self, workload, pinned):
        import qhrolab.experiments

        self.experiments = qhrolab.experiments
        self.workload = workload
        self.pool = pinned["pool"][workload]
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.changed = set()  # (offset, position) of reports whose digest moved

    def entry(self, k, seed):
        return self.pool[(seed + k) % len(self.pool)]

    def run_pass(self, entry, tracer=None):
        """One pass over the workload; returns wall, cpu and serialize seconds."""
        wall = cpu = ser = 0.0
        for pos, (name, params) in enumerate(workloads.runs_for(self.workload, entry["offset"])):
            pin = entry["reports"][pos]
            if tracer is not None:
                tracer.root = pos
            self.attempted += 1
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                # looked up at call time, so a traced run reaches the wrapper
                report = self.experiments.run_experiment(name, params)
                passed = report.passed
            except Exception as exc:  # each failing run is counted, not fatal
                wall += time.perf_counter() - t0
                cpu += time.process_time() - c0
                self._fail(name, params, f"raised {exc!r}")
                continue
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0

            s0 = time.perf_counter()
            text = report.to_json()
            report.to_csv()
            ser += time.perf_counter() - s0

            checks = [[c["name"], c["kind"], c["passed"]] for p in report.grid for c in p["checks"]]
            if not passed:
                self._fail(name, params, "report did not pass")
            elif checks != pin["checks"]:
                self._fail(name, params, f"checks {checks} differ from pinned {pin['checks']}")
            if hashlib.sha256(text.encode()).hexdigest() != pin["sha256"]:
                self.changed.add((entry["offset"], pos))
        return wall, cpu, ser

    def _fail(self, name, params, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name} {json.dumps(params, sort_keys=True)}: {why}")


def timed_loop(seconds, step):
    """Call step(k) for k = 1, 2, ... until `seconds` have passed (at least once)."""
    start = time.perf_counter()
    k = 1
    while k == 1 or time.perf_counter() - start < seconds:
        step(k)
        k += 1


def run_untraced(runner, seed, seconds):
    runner.run_pass(runner.entry(0, seed))  # warm-up
    samples = {"wall_s": [], "cpu_s": [], "serialize_s": []}

    def step(k):
        wall, cpu, ser = runner.run_pass(runner.entry(k, seed))
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["serialize_s"].append(ser)

    timed_loop(seconds, step)
    return samples


def run_traced(runner, seed, seconds):
    tr = tracing.Tracer()
    runner.run_pass(runner.entry(0, seed))  # warm-up
    passes = []
    samples = {"wall_s": [], "cpu_s": [], "serialize_s": [], "overhead_s": []}

    def step(k):
        entry = runner.entry(k, seed)
        wall, cpu, ser = runner.run_pass(entry)
        tr.reset()
        tr.install()
        try:
            traced, _, _ = runner.run_pass(entry, tr)
        finally:
            tr.uninstall()
        passes.append(tr.snapshot())
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["serialize_s"].append(ser)
        samples["overhead_s"].append(traced - wall)

    timed_loop(seconds, step)
    return tr, passes, samples


# ------------------------------------------------------------------ metrics


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(passes, samples, runner, sweep_metrics):
    first = passes[0]  # counts come from one pass, so they repeat exactly per seed
    out = {
        "run.wall_s": (statistics.median(samples["wall_s"]), "s"),
        "run.cpu_s": (statistics.median(samples["cpu_s"]), "s"),
    }
    for g in tracing.GROUPS:
        out[g + ".calls"] = (first[g + ".calls"], "count")
        out[g + ".self_s"] = (statistics.median(p[g + ".self_s"] for p in passes), "s")
    for name in tracing.COUNTERS:
        if name != "harness.mc.trials":
            unit = {"computed_flop": "flop", "computed_bytes": "B"}.get(name.rsplit(".", 1)[1], "count")
            out[name] = (first[name], unit)
    out["harness.mc.useful_ratio"] = (ratio(first["harness.mc.trials"], first["harness.run_concrete.calls"]), "ratio")
    out["relstate.cf.useful_ratio"] = (
        ratio(first["relstate.cf_count.calls"], first["relstate.is_collision_free.calls"]),
        "ratio",
    )
    out["experiments.serialize_s"] = (statistics.median(samples["serialize_s"]), "s")
    out["experiments.reports_changed"] = (len(runner.changed), "count")
    out["experiments.failed_frac"] = (ratio(runner.failed, runner.attempted), "ratio")
    out["trace.overhead_s"] = (statistics.median(samples["overhead_s"]), "s")
    for name, value in sweep_metrics.items():
        out[name] = (value, "us")
    return out


def top_layers(passes, workload, count=3):
    """Median self time per experiment position, largest layers first."""
    names = [name for name, _ in workloads.WORKLOADS[workload]]
    lines = []
    for pos, name in enumerate(names):
        keys = {k for p in passes for k in p["by_root"] if k.startswith(f"{pos}:")}
        med = {k.split(":", 1)[1]: statistics.median(p["by_root"].get(k, 0.0) for p in passes) for k in keys}
        ranked = sorted(med.items(), key=lambda kv: -kv[1])[:count]
        lines.append(f"  {name}: " + ", ".join(f"{g} {s:.3f}s" for g, s in ranked))
    return lines


def summary(samples):
    vals = sorted(samples)
    return f"median {statistics.median(vals):.4f} min {vals[0]:.4f} max {vals[-1]:.4f} n={len(vals)}"


# ------------------------------------------------------------------ compare


def compare(old_path, new_path):
    old = json.loads(Path(old_path).read_text())["result"]["metrics"]
    new = json.loads(Path(new_path).read_text())["result"]["metrics"]
    print(f"{'metric':48} {'old':>14} {'new':>14} {'delta':>14} {'delta%':>8}")
    for name in sorted(set(old) | set(new)):
        a = old.get(name, {}).get("value")
        b = new.get(name, {}).get("value")
        if a is None or b is None:
            print(f"{name:48} {a if a is not None else 'absent':>14} {b if b is not None else 'absent':>14}")
            continue
        pct = f"{100.0 * (b - a) / a:+.1f}" if a else "n/a"
        unit = new[name]["unit"]
        print(f"{name:48} {a:>14.6g} {b:>14.6g} {b - a:>+14.6g} {pct:>8} {unit}")
    return 0


# ------------------------------------------------------------------ main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="seed 0 starts at the acceptance seeds")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print deltas between two results files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qhrolab" / "experiments.py").is_file():
        print(f"error: no qhrolab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads((HERE / "pinned.json").read_text())

    setup_s = measure_setup() if args.trace == 0 else None
    sys.path.insert(0, str(SRC))
    runner = Runner(args.workload, pinned)
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    OUT.mkdir(exist_ok=True)

    if args.trace == 0:
        samples = run_untraced(runner, args.seed, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"peak_rss_mb": (rss_mb, "MB"), "setup_s": (setup_s, "s")}
        wanted = spec["end_to_end"]
    else:
        sweep_metrics = sweep.run(args.seed)
        tr, passes, samples = run_traced(runner, args.seed, args.seconds)
        metrics = per_layer_metrics(passes, samples, runner, sweep_metrics)
        samples["passes"] = passes
        print(f"traced passes: {len(passes)}, spans: {len(tr.span_group)} (+{tr.dropped_spans} not stored)")
        print("largest self times by experiment:")
        print("\n".join(top_layers(passes, args.workload)))
        if tr.absent:
            print("absent (reported as 0): " + ", ".join(tr.absent))
        if tr.hook_errors:
            print("counts unavailable (reported as 0): " + ", ".join(sorted(tr.hook_errors)))
        tr.write_spans(OUT / f"{args.workload}-spans.npz")
        wanted = spec["per_layer"]

    declared = {m["name"]: m["unit"] for m in wanted}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if declared != produced:
        diff = sorted(set(declared.items()) ^ set(produced.items()))
        print(f"error: metrics differ from BENCHMARK.json: {diff}", file=sys.stderr)
        return 2
    for name in ("wall_s", "cpu_s", "serialize_s"):
        print(f"{name} per untraced pass: {summary(samples[name])}")
    for name in runner.failures:
        print(f"FAILED: {name}")
    if runner.changed:
        print(f"reports changed against pinned digests (offset, position): {sorted(runner.changed)}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "samples": samples,
        "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
