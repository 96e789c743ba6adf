"""tools/report_digests.py: --compare finds every run whose digest or check list differs, and
the runs cover every registered experiment."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", ROOT / "tools" / "report_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_lists_every_differing_run(tmp_path, capsys):
    tool = load_tool()
    entry = {"sha256": "ab", "checks": [["td", "EXACT", True]]}
    old = {"a": entry, "b": entry, "c": entry, "only_old": entry}
    new = {
        "a": entry,
        "b": {**entry, "sha256": "cd"},
        "c": {**entry, "checks": [["td", "EXACT", False]]},
        "only_new": entry,
    }
    paths = []
    for name, digests in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digests))
    assert tool.main(["--compare", *map(str, paths)]) == 1
    out = capsys.readouterr().out
    assert [line.split(" ", 1)[1] for line in out.splitlines()[:-1]] == ["b", "c", "only_new", "only_old"]
    assert out.splitlines()[-1] == "4 of 5 runs differ"
    assert tool.main(["--compare", str(paths[0]), str(paths[0])]) == 0


def test_compare_says_when_the_environments_differ(tmp_path, capsys, monkeypatch):
    tool = load_tool()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("NOT_A_THREAD_COUNT", "1")
    env = tool.environment()
    assert set(env) == {"numpy", "blas", "threads", "cpu_count"}
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1" and "NOT_A_THREAD_COUNT" not in env["threads"]
    runs = {"a": {"sha256": "ab", "checks": []}}
    files = {
        "one": {"environment": {**env, "threads": {"OPENBLAS_NUM_THREADS": "1"}}, **runs},
        "four": {"environment": {**env, "threads": {"OPENBLAS_NUM_THREADS": "4"}}, **runs},
        "none": runs,  # written before the environment was recorded
    }
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))

    def compare(a, b):
        code = tool.main(["--compare", str(tmp_path / f"{a}.json"), str(tmp_path / f"{b}.json")])
        return code, capsys.readouterr().out.splitlines()

    # the environment is not a run, and a difference in it fails nothing
    assert compare("one", "one") == (0, ["0 of 1 runs differ"])
    assert compare("one", "four") == (
        0,
        ["environment differs: threads: {'OPENBLAS_NUM_THREADS': '1'} -> {'OPENBLAS_NUM_THREADS': '4'}", "0 of 1 runs differ"],
    )
    code, out = compare("none", "one")
    assert code == 0 and out[-1] == "0 of 1 runs differ"
    assert [line.split(":")[1].strip() for line in out[:-1]] == sorted(env)


def test_runs_name_every_experiment_and_both_pru1_modes():
    from qhrolab.experiments import EXPERIMENTS

    runs = load_tool().runs()
    assert {name for _, name, _ in runs} == set(EXPERIMENTS)
    assert {params.get("mode", "secure") for _, name, params in runs if name == "exp_pru1"} == {"secure", "break"}
    assert len({key for key, _, _ in runs}) == len(runs)


@pytest.mark.parametrize(
    "name,params",
    [
        # CI compared these across two runs before its determinism check became
        # two runs of this tool, which holds them only at other trial counts
        ("exp_mh_bound", {"seed": 11, "trials": 1000}),
        ("exp_pru2", {"seed": 7, "n_list": [3], "trials": 300}),
    ],
)
def test_a_rerun_gives_the_same_report(name, params):
    from qhrolab.experiments import run_experiment

    assert run_experiment(name, params).to_json() == run_experiment(name, params).to_json()
