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
print(f"calibration kernel median ms: setup {{seed / 100:.3f}} (60); nominal 4.000")
print(f"  step_ms_p50.max {{value:16.6g}} ms  (raw {{value + 10:.6g}})")
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
        # run.py prints "(raw ...)" only where the uncalibrated value differs
        offset = 10.0 if name == "step_ms_p50.max" else 0.0
        assert m["raw"]["parent"]["values"] == [v + offset for v in m["parent"]["values"]]
        assert m["raw"]["change"]["values"] == [v + offset for v in m["change"]["values"]]
    assert train["calibration_ms"]["parent"] == {
        "setup": {"values": [5.0, 5.01, 5.02], "median": 5.01, "q1": 5.005, "q3": 5.015}}
    assert train["calibration_ms"]["change"]["setup"]["values"] == [5.0, 5.01, 5.02]
    out = capsys.readouterr().out
    assert "step_ms_p50.mask" in out
    assert "raw medians, parent -> change: step_ms_p50.max 611 -> 609\n" in out
    assert "calibration kernel median ms, parent -> change: setup 5.010 -> 5.010\n" in out


# the standard output of `perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0`
CAPTURED = """\
env {"OPENBLAS_NUM_THREADS": "1", "affinity_cpus": 2, "blas": "scipy-openblas 0.3.31.188.0", \
"blas_threads": 1, "cpu": "Intel(R) Xeon(R) Processor", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7"}
workload train seed 1: 3 rounds, set-up inputs ['1.231', '1.288', '1.179'] s, canaries and references 1.952 s
step samples {max: 102, avg: 102, mask: 102}, eval 864 images in 1.329 s
ops: 36 library calls attempted by the workload, 0 failed (a failed check counts as a failed call)
probe (counted in ops_ok_frac only): scenegen.generate_dataset: ok
calibration kernel median ms: eval 4.225 (54), inputs 3.585 (18), setup 4.129 (60); nominal 4.000
  setup_s                                           3.29769 s  (raw 3.18319)
  peak_rss_mb                                       112.125 MB
  ops_ok_frac                                             1 frac
  digest_match_frac                                       1 frac
  step_ms_p50.max                                   26.3142 ms  (raw 30.748)
  step_ms_p90.max                                   29.2181 ms  (raw 34.5192)
  step_ms_p50.mask                                  27.9933 ms  (raw 30.5061)
  step_ms_p90.mask                                  30.8705 ms  (raw 37.3739)
  step_ms_p50.avg                                   26.1653 ms  (raw 25.4734)
  eval_img_per_s                                    670.912 img/s  (raw 649.964)
{"attempted": 36, "correct": true, "failed": 0, "metrics": {"digest_match_frac": {"unit": "frac", "value": 1.0}, \
"eval_img_per_s": {"unit": "img/s", "value": 670.9115676401652}, "ops_ok_frac": {"unit": "frac", "value": 1.0}, \
"peak_rss_mb": {"unit": "MB", "value": 112.125}, "setup_s": {"unit": "s", "value": 3.2976914137152296}, \
"step_ms_p50.avg": {"unit": "ms", "value": 26.165322034644436}, "step_ms_p50.mask": {"unit": "ms", \
"value": 27.993297803953244}, "step_ms_p50.max": {"unit": "ms", "value": 26.314151300717782}, \
"step_ms_p90.mask": {"unit": "ms", "value": 30.87053716957826}, "step_ms_p90.max": {"unit": "ms", \
"value": 29.218072873658613}}}
"""


def test_parse_keeps_raw_values_and_calibration_medians():
    parsed = load_script().parse(CAPTURED)
    assert parsed["correct"] is True and parsed["env"]["cpu"] == "Intel(R) Xeon(R) Processor"
    assert parsed["step_ms_p90.max"] == 29.218072873658613
    assert parsed["calibration_ms"] == {"eval": 4.225, "inputs": 3.585, "setup": 4.129}
    assert parsed["raw"] == {
        "setup_s": 3.18319, "peak_rss_mb": 112.125, "ops_ok_frac": 1.0, "digest_match_frac": 1.0,
        "step_ms_p50.max": 30.748, "step_ms_p90.max": 34.5192, "step_ms_p50.mask": 30.5061,
        "step_ms_p90.mask": 37.3739, "step_ms_p50.avg": 25.4734, "eval_img_per_s": 649.964}
