"""Tests of the benchmark harness itself (not of the library it measures).

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import workloads
from spans import Hook, Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = workloads.Scale(ref_train_images=4, ref_steps=2, canary_train_images=4, canary_steps=3,
                       canary_repeats=2, train_canary_steps=2, canary_val_images=2, train_images=4,
                       train_val_images=2, val_images=2, bg_pool=5, round_steps=3, input_repeats=2,
                       min_rounds=2, min_detections=0)


def fake_module():
    mod = types.ModuleType("pkg.fake")

    def inner(fail=False):
        if fail:
            raise ValueError("inner failed")
        return "inner"

    def outer(fail=False):
        mod.inner(fail)
        return mod.inner(fail)

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_is_duration_minus_child_spans():
    mod = fake_module()
    # outer [0, 20]; inner [2, 5] and [11, 15]
    ticks = iter([0.0, 2.0, 5.0, 11.0, 15.0, 20.0])
    tracer = Tracer([(mod, ("outer", "inner"))], clock=lambda: next(ticks))
    with tracer:
        assert mod.outer() == "inner"
    assert tracer.totals() == {"fake.outer": (1, 13.0), "fake.inner": (2, 7.0)}
    outer = next(s for s in tracer.spans if s.name == "fake.outer")
    assert [s.parent for s in tracer.spans if s.name == "fake.inner"] == [outer.id, outer.id]
    assert outer.parent is None and (outer.start, outer.end) == (0.0, 20.0)


def test_hooks_label_sites_and_count():
    mod = fake_module()
    hooks = {"fake.inner": Hook(site=lambda a, k: "leaf", count=lambda a, k, r: {"n": len(r)})}
    tracer = Tracer([(mod, ("outer", "inner"))], hooks)
    with tracer:
        mod.outer()
    assert tracer.counters["n"] == 2 * len("inner")
    assert {s.site for s in tracer.spans if s.name == "fake.inner"} == {"leaf"}
    assert tracer.site_self_s("fake.inner", ("leaf", "other"))["other"] == 0.0


def test_originals_restored_after_exception():
    mod = fake_module()
    originals = (mod.outer, mod.inner)
    tracer = Tracer([(mod, ("outer", "inner"))])
    with pytest.raises(ValueError):
        with tracer:
            mod.outer(fail=True)
    assert (mod.outer, mod.inner) == originals
    assert [s.name for s in tracer.spans] == ["fake.inner", "fake.outer"]


def library_functions():
    return {(module, name): getattr(module, name)
            for module, names in workloads.TRACE_TARGETS for name in names}


def test_wrappers_restored_after_traced_run(tmp_path):
    before = library_functions()
    run, values, tracer = workloads.execute("sweep", 3, 0.0, True, TINY, tmp_path / "out",
                                            tmp_path / "build", reference={})
    assert library_functions() == before
    assert all(not hasattr(fn, "__wrapped_by_tracer__") for fn in before.values())
    assert tracer.spans and values["experiments.evaluate_records.calls"] > 0
    assert values["maskpool.bg_scale.calls"] > 0
    assert values["nn.conv2d_backward.calls"] == 0


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = benchmark_json()
    e2e = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    layer = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == set(workloads.END_TO_END)
    assert layer == set(workloads.per_layer_names())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload, tmp_path):
    digests, names = [], []
    for seed, trace in ((1, False), (2, False), (1, True)):
        run, values, _ = workloads.execute(workload, seed, 0.0, trace, TINY, tmp_path / "out",
                                           tmp_path / "build", reference={})
        digests.append(run.inputs.digest)
        names.append(set(values))
        assert run.ops.failures == []
        assert all(NAME.fullmatch(n) for n in values)
    assert digests[0] != digests[1] and digests[0] == digests[2]
    assert names[0] == names[1] == {n for n, _ in workloads.END_TO_END}
    assert names[2] == {n for n, _, _ in workloads.per_layer_names()}


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
