"""Intervention harness tests: identity interventions are exact no-ops,
report aggregates and schema round trips, ablation and diff tables."""

import json
import os
import sys

import numpy as np
import pytest

from maskpool_lab import detector, experiments, nn, scenegen
from maskpool_lab.errors import ConfigurationError


@pytest.fixture(scope="module")
def world():
    """A tiny dataset plus quickly trained max/mask checkpoints."""
    records = scenegen.generate_dataset(10, 64, seed=21, size_range=(12, 28),
                                        bias=scenegen.BiasSpec.concentrated(3, 4, 0.85))
    cfg = dict(image_size=64, channels=(8, 16, 24, 24))
    opt = nn.OptimizerConfig()
    ckpt_max = detector.train(records, detector.ModelConfig(pooling_variant="max", **cfg),
                              opt, iterations=60, seed=2)
    ckpt_mask = detector.train(records, detector.ModelConfig(pooling_variant="mask", **cfg),
                               opt, iterations=60, seed=2)
    class_names = list(scenegen.DEFAULT_CLASSES)
    return records, class_names, ckpt_max, ckpt_mask


class TestEvaluate:
    def test_deterministic(self, world):
        records, names, ckpt_max, _ = world
        model = detector.model_from_checkpoint(ckpt_max)
        a = experiments.evaluate_records(model, records, names)
        b = experiments.evaluate_records(model, records, names)
        assert a.map50 == b.map50
        assert a.per_class_ap == b.per_class_ap

    def test_inputs_not_mutated(self, world):
        records, names, ckpt_max, _ = world
        before = [(r.image.copy(), r.fg_mask.copy()) for r in records]
        experiments.evaluate_records(detector.model_from_checkpoint(ckpt_max), records, names)
        for r, (img, m) in zip(records, before):
            assert np.array_equal(r.image, img) and np.array_equal(r.fg_mask, m)


class TestSettingsInOnePass:
    @pytest.mark.parametrize("variant", ("max", "mask"))
    def test_each_setting_equals_its_own_evaluation(self, world, variant):
        """The shared layers before the first mask reader change no result, with a
        w = 1 setting (no mask reader at all for max) beside slot and all-stage ones."""
        records, names, ckpt_max, ckpt_mask = world
        model = detector.model_from_checkpoint(ckpt_max if variant == "max" else ckpt_mask)
        masks = [r.fg_mask for r in records]
        settings = [(detector.mask_levels(model.cfg, masks, w, every), w, every)
                    for w, every in ((1.0, False), (0.5, False), (2.0, True))]
        results = experiments.evaluate_records(model, records, names, batch_size=4,
                                               settings=settings)
        for (levels, w, every), got in zip(settings, results):
            want = experiments.evaluate_records(model, records, names, None, w, every, batch_size=4)
            assert got == want

    def test_more_threads_than_cores_same_results(self, world):
        """Threads share each batch's activation and write their own setting's
        detections; frequent thread switches must not move a result."""
        records, names, _, ckpt_mask = world
        model = detector.model_from_checkpoint(ckpt_mask)
        levels = detector.mask_levels(model.cfg, [r.fg_mask for r in records], 0.5)
        settings = [(levels, w, False) for w in (0.5, 1.0, 1.5, 2.0, 2.5)]
        want = experiments.evaluate_records(model, records, names, batch_size=4, settings=settings)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = experiments.evaluate_records(model, records, names, batch_size=4, settings=settings,
                                               threads=2 * (os.cpu_count() or 1) + 1)
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestSweep:
    def test_identity_weight_reproduces_baseline_bitwise(self, world):
        records, names, ckpt_max, _ = world
        model = detector.model_from_checkpoint(ckpt_max)
        base = experiments.evaluate_records(model, records, names)
        rep = experiments.run_bg_activation_sweep(ckpt_max, records,
                                                  experiments.SweepSpec((1.0,)))
        assert rep.rows[0].map50 == base.map50
        assert rep.aggregates["map50"]["diff"] == 0.0

    def test_all_fg_masks_make_sweep_flat(self, world):
        records, names, ckpt_max, _ = world
        flat = [scenegen.ImageRecord(r.image_id, r.image, np.ones_like(r.fg_mask), r.instances)
                for r in records]
        rep = experiments.run_bg_activation_sweep(ckpt_max, flat,
                                                  experiments.SweepSpec((0.5, 1.0, 2.0)))
        values = {row.map50 for row in rep.rows}
        assert len(values) == 1
        assert rep.aggregates["map50"]["diff"] == 0.0

    def test_applies_to_mask_variant_too(self, world):
        records, names, _, ckpt_mask = world
        rep = experiments.run_bg_activation_sweep(ckpt_mask, records,
                                                  experiments.SweepSpec((0.5, 1.0)))
        assert len(rep.rows) == 2

    def test_default_sweep_contains_identity(self):
        spec = experiments.SweepSpec()
        assert spec.weights[0] == 0.5 and spec.weights[-1] == 2.75
        assert 1.0 in spec.weights and len(spec.weights) == 10

    def test_sweep_spec_validation(self):
        with pytest.raises(ConfigurationError):
            experiments.SweepSpec(())
        with pytest.raises(ConfigurationError):
            experiments.SweepSpec((1.0, 0.5))
        # a NaN weight would be written into the report as its row label
        for weights in ((0.5, float("nan")), (float("-inf"), 0.5)):
            with pytest.raises(ConfigurationError, match="sweep weights entry must be a finite number"):
                experiments.SweepSpec(weights)

    def test_threads_do_not_change_results(self, world):
        records, names, ckpt_max, _ = world
        spec = experiments.SweepSpec((0.5, 1.0, 1.5))
        a = experiments.run_bg_activation_sweep(ckpt_max, records, spec, threads=1)
        b = experiments.run_bg_activation_sweep(ckpt_max, records, spec, threads=2)
        assert [r.map50 for r in a.rows] == [r.map50 for r in b.rows]


class TestPerturbAllStages:
    @pytest.mark.parametrize("variant", ("max", "mask"))
    def test_identity_weight_reproduces_baseline_bitwise(self, world, variant):
        records, names, ckpt_max, ckpt_mask = world
        ckpt = ckpt_max if variant == "max" else ckpt_mask
        base = experiments.evaluate_records(detector.model_from_checkpoint(ckpt), records, names)
        rep = experiments.run_bg_activation_sweep(ckpt, records, experiments.SweepSpec((0.5, 1.0)),
                                                  perturb_all_stages=True)
        row = rep.rows[1]
        assert row.repetition == 1.0
        assert (row.map50, row.per_class_ap, row.per_class_hf) == \
            (base.map50, base.per_class_ap, base.per_class_hf)


class TestRandomBg:
    def test_self_background_is_identity(self, world):
        records, names, ckpt_max, _ = world
        model = detector.model_from_checkpoint(ckpt_max)
        base = experiments.evaluate_records(model, records, names)
        swapped = [scenegen.composite_random_bg(r, [r.image], seed=0) for r in records]
        again = experiments.evaluate_records(model, swapped, names)
        assert again.map50 == base.map50

    def test_single_repetition_zero_std(self, world):
        records, names, ckpt_max, _ = world
        pool = scenegen.generate_bg_pool(4, 64, seed=1)
        rep = experiments.run_random_bg_eval(ckpt_max, records, pool, repetitions=1, seed=5)
        agg = rep.aggregates["map50"]
        assert agg["std"] == 0.0 and agg["diff"] == 0.0

    def test_repetitions_differ_by_seed_xor(self, world):
        records, names, ckpt_max, _ = world
        pool = scenegen.generate_bg_pool(6, 64, seed=1)
        rep = experiments.run_random_bg_eval(ckpt_max, records, pool, repetitions=3, seed=5)
        again = experiments.run_random_bg_eval(ckpt_max, records, pool, repetitions=3, seed=5)
        assert [r.map50 for r in rep.rows] == [r.map50 for r in again.rows]
        assert [r.repetition for r in rep.rows] == [0, 1, 2]

    def test_empty_pool_rejected(self, world):
        records, _, ckpt_max, _ = world
        with pytest.raises(ConfigurationError):
            experiments.run_random_bg_eval(ckpt_max, records, [], repetitions=1, seed=0)

    @pytest.mark.parametrize("runner", [experiments.run_random_bg_eval,
                                        experiments.run_fixed_bg_eval])
    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_repetitions_below_one_rejected_before_work(self, runner, repetitions):
        # neither a checkpoint nor a dataset: any work before the check would fail otherwise
        pool = scenegen.generate_bg_pool(2, 64, seed=1)
        with pytest.raises(ConfigurationError, match="repetitions"):
            runner(None, None, pool, repetitions=repetitions)

    def test_ground_truth_never_altered(self, world):
        records, names, ckpt_max, _ = world
        before = [[(i.class_id, i.box) for i in r.instances] for r in records]
        pool = scenegen.generate_bg_pool(3, 64, seed=2)
        experiments.run_random_bg_eval(ckpt_max, records, pool, repetitions=2, seed=1)
        after = [[(i.class_id, i.box) for i in r.instances] for r in records]
        assert before == after


class TestFixedBg:
    def test_pool_smaller_than_repetitions(self, world):
        records, _, ckpt_max, _ = world
        pool = scenegen.generate_bg_pool(2, 64, seed=1)
        with pytest.raises(ConfigurationError):
            experiments.run_fixed_bg_eval(ckpt_max, records, pool, repetitions=5, seed=0)

    def test_single_pool_single_repetition(self, world):
        records, _, ckpt_max, _ = world
        pool = scenegen.generate_bg_pool(1, 64, seed=1)
        a = experiments.run_fixed_bg_eval(ckpt_max, records, pool, repetitions=1, seed=0)
        b = experiments.run_fixed_bg_eval(ckpt_max, records, pool, repetitions=1, seed=0)
        assert len(a.rows) == 1
        assert a.rows[0].map50 == b.rows[0].map50

    def test_same_seed_same_choices(self, world):
        records, _, ckpt_max, _ = world
        pool = scenegen.generate_bg_pool(8, 64, seed=1)
        a = experiments.run_fixed_bg_eval(ckpt_max, records, pool, repetitions=4, seed=9)
        b = experiments.run_fixed_bg_eval(ckpt_max, records, pool, repetitions=4, seed=9)
        assert [r.repetition for r in a.rows] == [r.repetition for r in b.rows]

    def test_per_class_table_present(self, world):
        records, names, ckpt_max, _ = world
        pool = scenegen.generate_bg_pool(2, 64, seed=1)
        rep = experiments.run_fixed_bg_eval(ckpt_max, records, pool, repetitions=2, seed=0)
        for row in rep.rows:
            assert set(row.per_class_ap) == set(names)


class TestAblation:
    def test_requires_mask_variant(self, world):
        records, _, ckpt_max, _ = world
        with pytest.raises(ConfigurationError):
            experiments.run_boundary_ablation(ckpt_max, records)

    def test_empty_factors_baseline_only(self, world):
        records, _, _, ckpt_mask = world
        rep = experiments.run_boundary_ablation(ckpt_mask, records, factors=())
        assert len(rep.rows) == 1 and rep.rows[0].repetition == "baseline"

    def test_factor_rows_emitted(self, world):
        records, _, _, ckpt_mask = world
        rep = experiments.run_boundary_ablation(ckpt_mask, records, factors=(0.9, 1.1))
        assert [r.repetition for r in rep.rows] == ["baseline", 0.9, 1.1]

    def test_threads_do_not_change_results(self, world):
        records, _, _, ckpt_mask = world
        a = experiments.run_boundary_ablation(ckpt_mask, records, factors=(0.9, 1.1), threads=1)
        b = experiments.run_boundary_ablation(ckpt_mask, records, factors=(0.9, 1.1), threads=2)
        assert a.to_dict() == b.to_dict()

    def test_factor_one_rejected(self, world):
        records, _, _, ckpt_mask = world
        with pytest.raises(ConfigurationError):
            experiments.run_boundary_ablation(ckpt_mask, records, factors=(1.0,))


class TestReports:
    def test_aggregate_formulas(self):
        rep = experiments.ExperimentReport("m", "d", "x")
        for i, v in enumerate((10.0, 20.0, 40.0)):
            rep.rows.append(experiments.ReportRow(i, v, {}, {}))
        agg = rep.aggregates["map50"]
        assert agg["mean"] == pytest.approx(70.0 / 3)
        assert agg["std"] == pytest.approx(float(np.std([10, 20, 40], ddof=1)))
        assert agg["min"] == 10.0 and agg["max"] == 40.0 and agg["diff"] == 30.0

    def test_json_round_trip(self, tmp_path, world):
        records, _, ckpt_max, _ = world
        rep = experiments.run_bg_activation_sweep(ckpt_max, records,
                                                  experiments.SweepSpec((0.5, 1.0)),
                                                  model_id="max-2", dataset_id="tiny")
        path = tmp_path / "rep.json"
        rep.write_json(path)
        loaded = experiments.ExperimentReport.read_json(path)
        assert loaded.model_id == "max-2" and loaded.intervention == "bg_activation_sweep"
        assert [r.map50 for r in loaded.rows] == [r.map50 for r in rep.rows]
        assert loaded.aggregates == rep.aggregates

    def test_csv_shape(self, tmp_path, world):
        records, _, ckpt_max, _ = world
        rep = experiments.run_bg_activation_sweep(ckpt_max, records,
                                                  experiments.SweepSpec((1.0,)))
        path = tmp_path / "rep.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("model_id,dataset_id,intervention,repetition,map50")

    def test_schema_field_checked(self, tmp_path):
        with pytest.raises(ConfigurationError):
            experiments.ExperimentReport.from_dict({"schema": 2, "model_id": "x",
                                                    "dataset_id": "y", "intervention": "z",
                                                    "rows": []})


class TestDiffReport:
    def test_identical_reports_zero_diff(self):
        hf = {"circle": (1.0, 1.0, 0.6), "square": (1.0, 1.0, 0.4)}
        out = experiments.diff_report(hf, hf)
        assert all(row["diff"] == 0.0 for row in out["rows"])
        assert out["improved"] == 0 and out["pairs"] == 2

    def test_single_improvement_counted(self):
        a = {"circle": 0.4}
        b = {"circle": 0.7}
        out = experiments.diff_report(a, b)
        assert out["rows"][0]["diff"] == pytest.approx(0.3)
        assert out["improved"] == 1 and out["pairs"] == 1

    def test_missing_class_renders_dash(self):
        out = experiments.diff_report({"circle": 0.4}, {"circle": 0.5, "square": 0.7})
        table = experiments.render_diff_table(out)
        assert "-" in table.splitlines()[2]
        assert "improved 1 of 1 pairs" in table

    def test_disjoint_sets_warn(self):
        with pytest.warns(UserWarning, match="disjoint"):
            experiments.diff_report({"a": 0.1}, {"b": 0.2})


class TestStudy:
    def test_returns_written_summary_and_runner_seconds(self, tmp_path):
        spec = experiments.StudySpec(seeds=(0,), train_images=8, val_images=4, image_size=64,
                                     iterations=4, bg_pool=2, repetitions=2)
        summary, seconds = experiments.run_study(spec, tmp_path / "study")
        assert summary == json.loads((tmp_path / "study" / "summary.json").read_text())
        assert summary["config"] == {"seeds": [0], "train_images": 8, "val_images": 4,
                                     "image_size": 64, "iterations": 4, "batch_size": 8,
                                     "lr": 0.01, "bias": 0.85, "bg_pool": 2, "repetitions": 2,
                                     "out": str(tmp_path / "study")}
        reports = {"random_bg-max-seed0", "sweep-max-seed0", "random_bg-mask-seed0",
                   "sweep-mask-seed0", "ablation-mask-seed0"}
        assert set(seconds) == reports | {"eval-max-seed0", "eval-mask-seed0"}
        assert all(t >= 0 for t in seconds.values())
        written = {p.name for p in (tmp_path / "study").iterdir()}
        assert written == ({f"{r}.{ext}" for r in reports for ext in ("json", "csv")}
                           | {"max-seed0.mplb", "mask-seed0.mplb", "summary.json"})
        assert list(summary["seeds"]["0"]["ablation"]) == ["baseline", "0.8", "0.9", "1.1", "1.2"]
