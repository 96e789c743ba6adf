"""tools/report_digests.py --compare finds every run whose digest or check list differs."""

import importlib.util
import json
from pathlib import Path

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
