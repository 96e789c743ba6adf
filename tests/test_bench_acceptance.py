"""tools/bench_acceptance.py times the runs that tests/test_acceptance.py makes."""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def acceptance_calls():
    """Sorted (criterion, experiment, params) of every run_experiment call,
    with the criterion taken from the enclosing test's name."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    out = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        crit = re.fullmatch(r"test_criterion_(\d+)_\w+", fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_experiment":
                assert crit, f"{fn.name} runs an experiment outside a criterion test"
                name, params = (ast.literal_eval(arg) for arg in node.args)
                out.append((crit.group(1), name, params))
    return sorted(out, key=lambda c: (c[0], c[1]))


def test_bench_runs_match_the_acceptance_tests():
    spec = importlib.util.spec_from_file_location("bench_acceptance", ROOT / "tools" / "bench_acceptance.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    calls = acceptance_calls()
    assert calls
    assert sorted(bench.RUNS, key=lambda c: (c[0], c[1])) == calls
