"""Command-line front end: listing, describing, running, config handling."""

import dataclasses
import json
import os
import time

import pytest
from click.testing import CliRunner

from qhrolab import skeleton
from qhrolab.cli import _load_config, main
from qhrolab.experiments import EXPERIMENTS


def test_list_names_every_experiment():
    res = CliRunner().invoke(main, ["list"])
    assert res.exit_code == 0
    for name in EXPERIMENTS:
        assert name in res.output


def test_describe_shows_bound_and_defaults():
    res = CliRunner().invoke(main, ["describe", "exp_pru2"])
    assert res.exit_code == 0
    assert "2*sqrt((t^2+t*l)/N)" in res.output
    assert "trials = 20000" in res.output
    res = CliRunner().invoke(main, ["describe", "exp_prfs"])
    assert "needs n >= lam + m_in" in res.output
    res = CliRunner().invoke(main, ["describe", "exp_pru1"])
    assert "lam = n (an int >= 1)" in res.output and "copies_per_key = 4*lam" in res.output


def test_describe_unknown_exits_2():
    res = CliRunner().invoke(main, ["describe", "nope"])
    assert res.exit_code == 2


def test_run_unknown_exits_2(tmp_path):
    res = CliRunner().invoke(main, ["run", "nope", "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_run_writes_reports(tmp_path):
    res = CliRunner().invoke(
        main, ["run", "exp_split_augment", "--seed", "5", "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert "[pass]" in res.output
    runs = os.listdir(tmp_path / "exp_split_augment")
    assert len(runs) == 1
    rundir = tmp_path / "exp_split_augment" / runs[0]
    obj = json.loads((rundir / "report.json").read_text())
    assert obj["experiment"] == "exp_split_augment" and obj["seed"] == 5
    csv = (rundir / "report.csv").read_text()
    assert csv.splitlines()[0] == "point,check,kind,value,bound,stderr,passed"


def test_run_format_json_only(tmp_path):
    res = CliRunner().invoke(
        main,
        ["run", "exp_split_augment", "--seed", "5", "--out", str(tmp_path), "--format", "json"],
    )
    assert res.exit_code == 0
    runs = os.listdir(tmp_path / "exp_split_augment")
    files = os.listdir(tmp_path / "exp_split_augment" / runs[0])
    assert files == ["report.json"]


def test_run_reports_are_reproducible(tmp_path):
    runner = CliRunner()
    for sub in ("a", "b"):
        res = runner.invoke(
            main,
            ["run", "exp_spru", "--seed", "8", "--trials", "200", "--out", str(tmp_path / sub)],
        )
        assert res.exit_code == 0, res.output

    def read(sub):
        (run,) = os.listdir(tmp_path / sub / "exp_spru")
        d = tmp_path / sub / "exp_spru" / run
        return (d / "report.json").read_bytes(), (d / "report.csv").read_bytes()

    assert read("a") == read("b")


def test_runs_in_one_second_get_their_own_directories(tmp_path, monkeypatch):
    # the directory is named by the UTC second and the seed; a second run
    # that shares both takes the next free suffix
    frozen = time.gmtime(0)
    monkeypatch.setattr(time, "gmtime", lambda *args: frozen)
    cfg = tmp_path / "t0.json"
    cfg.write_text(json.dumps({"schema_version": 1, "t": 0}))
    runs = (["--format", "json"], ["--config", str(cfg), "--format", "csv"])
    for flags in runs:
        res = CliRunner().invoke(main, ["run", "exp_split_augment", "--seed", "5", "--out", str(tmp_path), *flags])
        assert res.exit_code == 0, res.output
    root = tmp_path / "exp_split_augment"
    assert sorted(os.listdir(root)) == ["19700101T000000-5", "19700101T000000-5-2"]
    assert os.listdir(root / "19700101T000000-5") == ["report.json"]
    assert os.listdir(root / "19700101T000000-5-2") == ["report.csv"]


def test_run_with_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"schema_version": 1, "experiment": "exp_split_augment", "seed": 4, "n": 2})
    )
    res = CliRunner().invoke(
        main,
        ["run", "exp_split_augment", "--config", str(cfg), "--out", str(tmp_path / "out")],
    )
    assert res.exit_code == 0, res.output
    (run,) = os.listdir(tmp_path / "out" / "exp_split_augment")
    obj = json.loads((tmp_path / "out" / "exp_split_augment" / run / "report.json").read_text())
    assert obj["params"]["n"] == 2 and obj["seed"] == 4


def test_flags_override_the_config(tmp_path):
    # an explicit --seed or --trials wins over the config; without the flag
    # the config's seed applies, and without either the seed is 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seed": 4, "trials": 300}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"schema_version": 1, "trials": 300}))
    cases = [
        (["--config", str(cfg), "--seed", "5", "--trials", "20"], 5, 20),
        (["--config", str(cfg), "--trials", "20"], 4, 20),
        (["--config", str(bare)], 0, 300),
    ]
    for i, (flags, seed, trials) in enumerate(cases):
        out = tmp_path / f"out{i}"
        res = CliRunner().invoke(main, ["run", "exp_spru", "--format", "json", "--out", str(out), *flags])
        assert res.exit_code == 0, res.output
        (run,) = os.listdir(out / "exp_spru")
        obj = json.loads((out / "exp_spru" / run / "report.json").read_text())
        assert (obj["seed"], obj["params"]["trials"]) == (seed, trials)


def test_a_seed_past_64_bits_runs_by_flag_and_by_config(tmp_path):
    # the schema is the one judge of a seed: --seed takes what a config's seed takes
    seed = 2**70
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seed": seed}))
    reports = []
    for sub, flags in (("flag", ["--seed", str(seed)]), ("config", ["--config", str(cfg)])):
        out = tmp_path / sub
        res = CliRunner().invoke(main, ["run", "exp_split_augment", "--format", "json", "--out", str(out), *flags])
        assert res.exit_code == 0, res.output
        (run,) = os.listdir(out / "exp_split_augment")
        reports.append((out / "exp_split_augment" / run / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["seed"] == seed == 1180591620717411303424


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--seed", "-1"], "invalid run: seed must be an int >= 0, not -1"),
        (["--trials", "0"], "invalid run: trials must be an int >= 1, not 0"),
    ],
)
def test_out_of_range_flags_exit_2_with_the_schemas_message(tmp_path, flags, message):
    res = CliRunner().invoke(main, ["run", "exp_spru", "--out", str(tmp_path / "o"), *flags])
    assert res.exit_code == 2
    assert message in res.output
    assert not (tmp_path / "o").exists()


def test_jobs_is_accepted_and_changes_nothing(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "jobs": 2}))
    reports = []
    for sub, extra in (("plain", []), ("flag", ["--jobs", "2"]), ("config", ["--config", str(cfg)])):
        out = tmp_path / sub
        res = CliRunner().invoke(
            main, ["run", "exp_split_augment", "--seed", "5", "--format", "json", "--out", str(out), *extra]
        )
        assert res.exit_code == 0, res.output
        (run,) = os.listdir(out / "exp_split_augment")
        reports.append((out / "exp_split_augment" / run / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("jobs", [0, "many", True, 2.0])
def test_jobs_has_one_rule_for_flag_and_config(jobs, tmp_path):
    # an int >= 1 that is not a bool, whether from --jobs or a config's jobs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "jobs": jobs}))
    routes = [["--config", str(cfg)]]
    if jobs in (0, "many"):
        routes.append(["--jobs", str(jobs)])
    for extra in routes:
        res = CliRunner().invoke(main, ["run", "exp_split_augment", "--out", str(tmp_path / "o"), *extra])
        assert res.exit_code == 2, (extra, res.output)
        assert "jobs must be an int >= 1" in res.output or "'many' is not a valid integer" in res.output
    assert not (tmp_path / "o").exists()


def test_config_rejections(tmp_path):
    runner = CliRunner()

    def attempt(payload):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        return runner.invoke(
            main, ["run", "exp_split_augment", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )

    assert attempt({"seed": 1}).exit_code == 2  # missing schema_version
    assert attempt({"schema_version": 2, "seed": 1}).exit_code == 2
    # only the int 1 is version 1: json's true and 1.0 compare equal to it
    for version in (True, 1.0):
        res = attempt({"schema_version": version, "seed": 1})
        assert res.exit_code == 2 and f"unsupported schema_version {version!r}" in res.output
    res = attempt({"schema_version": 1, "seed": 1, "bogus": 3})
    assert res.exit_code == 2 and "unknown parameters: bogus" in res.output
    assert attempt({"schema_version": 1, "experiment": "exp_spru", "seed": 1}).exit_code == 2
    # json reads 1e400 as inf, which no seed stream accepts
    res = attempt({"schema_version": 1, "seed": 1e400})
    assert res.exit_code == 2 and "invalid run" in res.output


def test_config_directory_exits_2(tmp_path):
    res = CliRunner().invoke(
        main, ["run", "exp_split_augment", "--config", str(tmp_path), "--out", str(tmp_path / "o")]
    )
    assert res.exit_code == 2
    assert "is a directory" in res.output


def test_run_invalid_params_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seed": 1, "t": 2}))
    res = CliRunner().invoke(
        main,
        ["run", "exp_split_augment", "--config", str(cfg), "--out", str(tmp_path / "o")],
    )
    assert res.exit_code == 2
    assert "invalid run" in res.output
    # exp_split_augment has no trials parameter
    res = CliRunner().invoke(main, ["run", "exp_split_augment", "--trials", "5", "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "unknown parameters: trials" in res.output
    # at n = 1 the split/augment chain has nothing to check
    cfg.write_text(json.dumps({"schema_version": 1, "seed": 9, "n": 1}))
    res = CliRunner().invoke(main, ["run", "exp_split_augment", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "n must be an int >= 2" in res.output


@pytest.mark.parametrize(
    "name,config,message",
    [
        ("exp_mh_bound", {"n_list": [3, 2]}, "n_list must be a strictly increasing non-empty list of ints >= 1"),
        ("exp_prs", {"n": 3, "lam": 2, "t": 2, "s": 0}, "scaling needs t >= 1 and s >= 1"),
        ("exp_cf_bound", {"n_max": 63, "samples": 1, "exhaustive_cap": 0}, "need n_max <= 62"),
        ("exp_spru", {"n_block": 5, "overlap": 2}, "a second-moment probe would span 16 qubits, over the 14-qubit cap"),
    ],
)
def test_run_outside_the_scaling_domain_exits_2(tmp_path, name, config, message):
    # a decreasing grid, or a game whose exact TD is 0, would fail a scaling
    # check; a grid past n = 62 would draw sets that do not fit a 64-bit int,
    # and an exp_spru layout this wide would build matrices past the qubit cap
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, **config}))
    res = CliRunner().invoke(main, ["run", name, "--seed", "11", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert f"invalid run: {message}" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_schema_field_is_described_and_configurable(tmp_path, name):
    schema = EXPERIMENTS[name].schema
    fields = dataclasses.fields(schema)
    values = json.loads(json.dumps({f.name: 0 if f.name == "seed" else f.default for f in fields}))
    assert schema(**values) == schema.parse({"seed": 0})
    out = CliRunner().invoke(main, ["describe", name]).output
    for f in fields:
        assert f"\n  {f.name} " in out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "experiment": name, "jobs": 1, **values}))
    assert _load_config(str(cfg), name) == values


def test_run_resource_limit_exits_3(tmp_path, monkeypatch):
    import qhrolab.cli

    def out_of_entries(name, params):
        raise MemoryError("purified state exceeds the 16-entry cap")

    monkeypatch.setattr(qhrolab.cli, "run_experiment", out_of_entries)
    res = CliRunner().invoke(main, ["run", "exp_split_augment", "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "resource limit" in res.output
    assert not os.path.exists(os.path.join(tmp_path, "exp_split_augment"))


def test_run_failure_after_parsing_exits_4(tmp_path, monkeypatch):
    d = EXPERIMENTS["exp_split_augment"]

    def failing(p, rep):
        raise ValueError("prefix-XOR subset is not unique; collision-freeness violated")

    monkeypatch.setitem(EXPERIMENTS, "exp_split_augment", dataclasses.replace(d, fn=failing))
    res = CliRunner().invoke(main, ["run", "exp_split_augment", "--out", str(tmp_path)])
    assert res.exit_code == 4
    assert "run failed: ValueError: prefix-XOR subset is not unique" in res.output
    assert not os.path.exists(os.path.join(tmp_path, "exp_split_augment"))
    # bad parameters are still refused before the body runs
    res = CliRunner().invoke(main, ["run", "exp_split_augment", "--trials", "5", "--out", str(tmp_path)])
    assert res.exit_code == 2 and "invalid run" in res.output


def test_view_over_the_density_cap_exits_2(tmp_path):
    # at n = 7 and t = 1 the exact views of exp_prs would keep 14 qubits
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "n": 7, "lam": 1, "t": 1, "s": 0, "scaling": False}))
    res = CliRunner().invoke(main, ["run", "exp_prs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "invalid run: the reduced view would span 14 qubits, over the 12-qubit cap" in res.output


def test_non_finite_check_value_exits_4(tmp_path, monkeypatch):
    d = EXPERIMENTS["exp_split_augment"]

    def nan_check(p, rep):
        skeleton._check(rep.add_point({"n": p.n}), "fidelity", "EXACT", float("nan"), 1.0)

    monkeypatch.setitem(EXPERIMENTS, "exp_split_augment", dataclasses.replace(d, fn=nan_check))
    res = CliRunner().invoke(main, ["run", "exp_split_augment", "--out", str(tmp_path)])
    assert res.exit_code == 4
    assert "run failed: ValueError: check fidelity: value nan" in res.output
    assert not os.path.exists(os.path.join(tmp_path, "exp_split_augment"))
