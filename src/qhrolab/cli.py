"""Command-line front end: list, describe, and run the registered experiments.

No numerics live here; everything routes through the experiments registry.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys
import time
import traceback

import click

from .experiments import EXPERIMENTS, field_doc, run_experiment

CONFIG_KEYS = {"schema_version", "experiment", "jobs"}  # besides the experiment's parameters


def _check_jobs(jobs):
    """ValueError unless jobs is an int >= 1 (true is not): the one rule of --jobs and a config's jobs."""
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an int >= 1, not {jobs!r}")


def _load_config(path, name):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a flat JSON object")
    if "schema_version" not in cfg:
        raise ValueError("config is missing schema_version")
    if type(cfg["schema_version"]) is not int or cfg["schema_version"] != 1:
        raise ValueError(f"unsupported schema_version {cfg['schema_version']!r}")
    if "experiment" in cfg and cfg["experiment"] != name:
        raise ValueError(f"config is for {cfg['experiment']!r}, not {name!r}")
    if "jobs" in cfg:
        _check_jobs(cfg["jobs"])
    for key in CONFIG_KEYS:
        cfg.pop(key, None)
    return cfg


def _new_rundir(base):
    """Create and return the run directory `base`, or, if it exists, the
    first of base-2, base-3, ... that does not: two runs never share one."""
    os.makedirs(os.path.dirname(base), exist_ok=True)
    for i in itertools.count(1):
        rundir = base if i == 1 else f"{base}-{i}"
        try:
            os.mkdir(rundir)
            return rundir
        except FileExistsError:
            pass


@click.group()
def main():
    """Exact-simulation laboratory for keyed oracle constructions."""


@main.command("list")
def cmd_list():
    """List registered experiments."""
    for name in sorted(EXPERIMENTS):
        click.echo(f"{name}: {EXPERIMENTS[name].description}")


@main.command("describe")
@click.argument("name", type=click.Choice(sorted(EXPERIMENTS)), metavar="NAME")
def cmd_describe(name):
    """Show parameters, bound, and pass rule of one experiment."""
    d = EXPERIMENTS[name]
    click.echo(f"experiment: {name}")
    click.echo(f"description: {d.description}")
    click.echo(f"bound: {d.bound}")
    click.echo(f"pass rule: {d.pass_rule}")
    click.echo("parameters:")
    for f in dataclasses.fields(d.schema):
        click.echo(f"  {field_doc(f)}")


@main.command("run")
@click.argument("name", type=click.Choice(sorted(EXPERIMENTS)), metavar="NAME")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--seed", type=int, default=None, show_default="the config's seed, else 0", help="overrides the config's seed")
@click.option("--trials", type=int, default=None)
@click.option("--out", "outdir", type=click.Path(), default="results", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "both"]), default="both", show_default=True)
@click.option("--jobs", type=int, default=None, help="accepted for schema v1; has no effect")
def cmd_run(name, config_path, seed, trials, outdir, fmt, jobs):
    """Run one experiment and write report files.

    Exits 0 when every check passes, 1 on a failed check, 2 on an unknown
    experiment, an invalid config or invalid parameters (all found before
    any numerics run), 3 when a resource limit is hit, and 4 when the run
    fails in any other way after its parameters were accepted. Exits 3 and
    4 write no report.
    """
    params = {}
    try:
        if config_path:
            params.update(_load_config(config_path, name))
        if jobs is not None:
            _check_jobs(jobs)
        if seed is not None:
            params["seed"] = seed
        params.setdefault("seed", 0)
        if trials is not None:
            params["trials"] = trials
        EXPERIMENTS[name].schema.parse(params)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        click.echo(f"invalid run: {exc}", err=True)
        sys.exit(2)
    try:
        started = time.time()
        report = run_experiment(name, params)
        elapsed = time.time() - started
    except MemoryError as exc:
        click.echo(f"resource limit: {exc}", err=True)
        sys.exit(3)
    except Exception as exc:
        click.echo(traceback.format_exc(), err=True)
        click.echo(f"run failed: {type(exc).__name__}: {exc}", err=True)
        sys.exit(4)

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    rundir = _new_rundir(os.path.join(outdir, name, f"{stamp}-{report.seed}"))
    written = []
    if fmt in ("json", "both"):
        p = os.path.join(rundir, "report.json")
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        written.append(p)
    if fmt in ("csv", "both"):
        p = os.path.join(rundir, "report.csv")
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        written.append(p)

    click.echo(f"{name} seed={report.seed} ({elapsed:.1f}s)")
    for entry in report.grid:
        pt = ";".join(f"{k}={v}" for k, v in sorted(entry["point"].items()))
        for c in entry["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            click.echo(
                f"  [{mark}] {pt} {c['name']} ({c['kind']}): "
                f"value={c['value']:.6g} bound={c['bound']:.6g} stderr={c['stderr']:.3g}"
            )
    for p in written:
        click.echo(f"wrote {p}")
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
