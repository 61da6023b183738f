"""scripts/bench_pairs.py: a failed benchmark run ends the script with a short
report, not a traceback, and ``--json-out`` records what the comparison rests on."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_failed_run_names_itself_and_exits_1(tmp_path, capsys):
    tree = tmp_path / "change"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        "import sys\nprint('loading inputs', file=sys.stderr)\n"
        "print('ValueError: broken', file=sys.stderr)\nsys.exit(3)\n")
    with pytest.raises(SystemExit) as exit_info:
        load_script().run(tree, "swap", 4101, 12)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "swap change seed 4101: perfbench/run.py exited 3"
    assert "ValueError: broken" in err and "loading inputs" in err


FAKE_RUN = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, side = int(args["--seed"]), "{side}"
names = {names}
print("env " + json.dumps({{"cpu": "Fake CPU", "nproc": 2, "numpy": "0.0", "blas": "none"}}))
# the change is 2 lower than the parent on every metric, at every seed
value = 100.0 + seed - (2 if side == "change" else 0)
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {{name: {{"value": value}} for name in names}}}}))
"""


def test_json_out_records_commits_machine_seeds_and_comparisons(tmp_path, monkeypatch, capsys):
    script = load_script()
    bench = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]

    def fake_export(rev, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "run.py").write_text(FAKE_RUN.format(side=dest.name, names=names))
        return dest

    monkeypatch.setattr(script, "export", fake_export)
    monkeypatch.setattr(script, "git", lambda *args: "feed" if args[0] == "rev-parse" else "")
    out = tmp_path / "BENCH_test.json"
    assert script.main(["HEAD~1", "--seed", "500", "--pairs", "3", "--workloads", "train",
                        "--scratch", str(tmp_path / "s"), "--json-out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["commits"] == {"parent": "feed", "change": "feed"} and data["parent_rev"] == "HEAD~1"
    assert data["machine"]["cpu"] == "Fake CPU"
    assert data["seeds"] == {"first": 500, "pairs": 3, "warm_up": None}
    assert set(data["workloads"]) == {"train"}
    train = data["workloads"]["train"]
    assert train["incorrect"] == {"parent": 0, "change": 0}
    assert set(train["metrics"]) == set(names)
    for name, m in train["metrics"].items():
        # "lower is better" metrics improve by 2 in every pair, more than the parent's
        # quartile range; "higher is better" ones get worse by 2, within their bounds
        lower = m["better"] == "lower"
        assert m["parent"] == {"values": [600.0, 601.0, 602.0], "median": 601.0, "q1": 600.5, "q3": 601.5}
        assert m["change"]["values"] == [598.0, 599.0, 600.0]
        assert m["wins"] == (3 if lower else 0)
        assert m["verdict"] == ("too few pairs" if lower else "within")
    assert "step_ms_p50.mask" in capsys.readouterr().out
