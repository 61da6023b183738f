"""Command-line tests: config validation, exit codes, run manifests,
replayability, and the gen -> train -> eval -> report pipeline at toy scale."""

import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maskpool_lab
from maskpool_lab import cli, detector, experiments, metrics, scenegen


def write_config(path, **cfg):
    cfg.setdefault("schema", 1)
    path.write_text(json.dumps(cfg))
    return str(path)


def gen_config(tmp_path, out, n_images=6, image_size=64, **kw):
    return write_config(tmp_path / "gen.json", n_images=n_images, image_size=image_size,
                        size_range=[12, 28], seed=5, out=str(out), **kw)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 2-image dataset and an untrained 64 px mask checkpoint."""
    root = tmp_path_factory.mktemp("tiny")
    assert cli.main(["gen", "--config", gen_config(root, root / "data", n_images=2)]) == 0
    cfg = detector.ModelConfig(pooling_variant="mask", image_size=64, channels=(8, 16, 24, 24))
    ckpt = detector.checkpoint_from_model(detector.build_model(cfg, seed=1), seed=1, iterations=0)
    detector.save_checkpoint(ckpt, root / "mask.mplb")
    return root / "data", root / "mask.mplb"


class TestConfigHandling:
    def test_missing_schema_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_images": 2, "out": str(tmp_path / "d")}))
        assert cli.main(["gen", "--config", str(cfg)]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n_images=2, out=str(tmp_path / "d"),
                           bogus_knob=True)
        assert cli.main(["gen", "--config", cfg]) == 1

    def test_patch_margin_rejected(self, tmp_path):
        # the generator paints backgrounds from the nearest object's texture;
        # patch_margin no longer means anything
        cfg = write_config(tmp_path / "c.json", n_images=2, out=str(tmp_path / "d"),
                           patch_margin=0.45)
        assert cli.main(["gen", "--config", cfg]) == 1

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["gen", "--config", str(tmp_path / "absent.json")]) == 1

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert cli.main(["gen", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("case, expected", [
        ("missing_file", "report file not found"),
        ("truncated_json", "byte 31"),  # the cut-off '"dataset_' string starts there
        ("no_dataset_id", "KeyError: 'dataset_id'"),
        ("no_rows", "no rows"),
        ("row_not_object", "malformed report (TypeError"),
    ])
    def test_report_input_errors_exit_1(self, tmp_path, capsys, case, expected):
        doc = {"schema": 1, "model_id": "m", "dataset_id": "d", "intervention": "sweep",
               "rows": [{"repetition": 0, "map50": 1.0, "per_class_ap": {}, "per_class_hf": {}}]}
        text = json.dumps(doc)
        if case == "no_dataset_id":
            text = json.dumps({k: v for k, v in doc.items() if k != "dataset_id"})
        elif case == "no_rows":
            text = json.dumps(dict(doc, rows=[]))
        elif case == "row_not_object":
            text = json.dumps(dict(doc, rows=[3]))
        elif case == "truncated_json":
            text = text[:40]
        path = tmp_path / "rep.json"
        if case != "missing_file":
            path.write_text(text)
        cfg = write_config(tmp_path / "r.json", reports=[str(path)], out=str(tmp_path / "out"))
        assert cli.main(["report", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and expected in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_runtime_failure_exit_2(self, tmp_path):
        # a valid config whose training diverges fails at run time
        data = tmp_path / "data"
        assert cli.main(["gen", "--config", gen_config(tmp_path, data, n_images=2)]) == 0
        cfg = write_config(tmp_path / "t.json", dataset=str(data),
                           model={"image_size": 64, "channels": [8, 16, 24, 24]},
                           optimizer={"learning_rate": 1e8}, iterations=50, seed=1,
                           out=str(tmp_path / "trainout"))
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", cfg]) == 2

    def test_truncated_checkpoint_exit_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["gen", "--config", gen_config(tmp_path, data, n_images=2)]) == 0
        ckpt = tmp_path / "garbage.mplb"
        ckpt.write_bytes(b"MPLB" + b"\xff" * 3)  # valid magic, then truncated garbage
        cfg = write_config(tmp_path / "e.json", dataset=str(data), checkpoint=str(ckpt),
                           out=str(tmp_path / "evalout"))
        assert cli.main(["eval", "--config", cfg]) == 1
        assert "garbage.mplb: byte 4:" in capsys.readouterr().err

    def test_malformed_manifest_exit_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["gen", "--config", gen_config(tmp_path, data, n_images=2)]) == 0
        doc = json.loads((data / "manifest.json").read_text())
        del doc["images"][1]["instances"][0]["class_id"]
        (data / "manifest.json").write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "e.json", dataset=str(data),
                           checkpoint=str(tmp_path / "absent.mplb"), out=str(tmp_path / "evalout"))
        assert cli.main(["eval", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{data / 'manifest.json'}: byte 0: image {doc['images'][1]['id']!r}" in err

    def test_class_id_outside_classes_exit_1(self, tiny, tmp_path, capsys):
        data = shutil.copytree(tiny[0], tmp_path / "data")
        doc = json.loads((data / "manifest.json").read_text())
        doc["images"][0]["instances"][0]["class_id"] = 7
        (data / "manifest.json").write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "e.json", dataset=str(data), checkpoint=str(tiny[1]),
                           out=str(tmp_path / "evalout"))
        assert cli.main(["eval", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{data / 'manifest.json'}: byte 0: image {doc['images'][0]['id']!r}" in err
        assert "class_id 7 is outside the 3 classes" in err

    def test_non_finite_checkpoint_weight_exit_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["gen", "--config", gen_config(tmp_path, data, n_images=2)]) == 0
        model = detector.build_model(detector.ModelConfig(image_size=64, channels=(8, 16, 24, 24)),
                                     seed=1)
        model.layers["stage2"].weights[0, 0, 0, 0] = np.nan
        ckpt = tmp_path / "nan.mplb"
        detector.save_checkpoint(detector.checkpoint_from_model(model, seed=1, iterations=0), ckpt)
        cfg = write_config(tmp_path / "e.json", dataset=str(data), checkpoint=str(ckpt),
                           out=str(tmp_path / "evalout"))
        assert cli.main(["eval", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "nan.mplb: byte" in err and "stage2.weight" in err
        assert not (tmp_path / "evalout" / "eval.json").exists()

    @pytest.mark.parametrize("model", [{"score_threshold": float("nan")}, {"nms_iou": 0.0}])
    def test_bad_decode_threshold_exit_1(self, tmp_path, model):
        data = tmp_path / "data"
        assert cli.main(["gen", "--config", gen_config(tmp_path, data, n_images=2)]) == 0
        out = tmp_path / "trainout"
        cfg = write_config(tmp_path / "t.json", dataset=str(data),
                           model={"image_size": 64, "channels": [8, 16, 24, 24], **model},
                           iterations=1, seed=1, out=str(out))
        assert cli.main(["train", "--config", cfg]) == 1
        assert not (out / "checkpoint.mplb").exists()

    @pytest.mark.parametrize("model", [{"image_size": "64"}, {"num_classes": "3"},
                                       {"channels": [8, 16, "24", 24]}, {"grid_stride": 8.0}])
    def test_mistyped_model_field_exit_1(self, tmp_path, capsys, model):
        data = tmp_path / "data"
        assert cli.main(["gen", "--config", gen_config(tmp_path, data, n_images=2)]) == 0
        out = tmp_path / "trainout"
        cfg = write_config(tmp_path / "t.json", dataset=str(data),
                           model={"image_size": 64, "channels": [8, 16, 24, 24], **model},
                           iterations=1, seed=1, out=str(out))
        assert cli.main(["train", "--config", cfg]) == 1
        assert next(iter(model)) in capsys.readouterr().err
        assert not (out / "checkpoint.mplb").exists()

    @pytest.mark.parametrize("command, cfg, key", [
        ("perturb", {"weights": 5}, "weights"),
        ("perturb", {"weights": ["a"]}, "weights"),
        ("perturb", {"weights": [0.5, float("nan")]}, "weights"),
        ("ablate", {"factors": ["x"]}, "factors"),
        ("ablate", {"factors": 3}, "factors"),
        ("train", {"iterations": "abc"}, "iterations"),
        ("train", {"iterations": -1}, "iterations"),
        ("train", {"batch_size": 0}, "batch_size"),
        ("train", {"optimizer": {"learning_rate": "x"}}, "optimizer.learning_rate"),
        ("gen", {"n_images": "x"}, "n_images"),
        ("gen", {"bias": {"concentration": "x"}}, "bias.concentration"),
        ("swap-bg", {"feather_radius": "x"}, "feather_radius"),
        ("swap-bg", {"bg": {"generate": {"n": "x"}}}, "bg.generate.n"),
        ("eval", {"seed": "x"}, "seed"),
        ("report", {"reports": "abc"}, "reports"),
    ])
    def test_mistyped_config_value_exit_1(self, tiny, tmp_path, capsys, command, cfg, key):
        data, ckpt = (str(p) for p in tiny)
        base = {"gen": {"n_images": 2, "image_size": 64},
                "train": {"dataset": data, "iterations": 1,
                          "model": {"image_size": 64, "channels": [8, 16, 24, 24]}},
                "swap-bg": {"dataset": data}, "report": {}}.get(
                    command, {"dataset": data, "checkpoint": ckpt})
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", **{**base, **cfg, "out": str(out)})
        assert cli.main([command, "--config", path]) == 1
        assert key in capsys.readouterr().err
        assert not (out / "run.json").exists()


class TestGen:
    def test_generates_dataset_and_run_manifest(self, tmp_path):
        out = tmp_path / "data"
        assert cli.main(["gen", "--config", gen_config(tmp_path, out)]) == 0
        manifest = scenegen.load_dataset(out)
        assert len(manifest) == 6
        run = json.loads((out / "run.json").read_text())
        assert run["schema"] == 1 and run["command"] == "gen"
        assert run["seed"] == 5 and "config_hash" in run

    def test_seed_flag_overrides_config(self, tmp_path):
        out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
        cfg = gen_config(tmp_path, out_a, n_images=3)
        cli.main(["gen", "--config", cfg])
        cli.main(["gen", "--config", cfg, "--seed", "5", "--out", str(out_b)])
        cli.main(["gen", "--config", cfg, "--seed", "99", "--out", str(out_c)])
        img = scenegen.load_dataset(out_a).images[0]["file"]
        assert (out_a / img).read_bytes() == (out_b / img).read_bytes()
        assert (out_a / img).read_bytes() != (out_c / img).read_bytes()

    def test_perfect_detector_closure(self, tmp_path):
        out = tmp_path / "data"
        cli.main(["gen", "--config", gen_config(tmp_path, out, n_images=4)])
        manifest = scenegen.load_dataset(out)
        records = manifest.load_all()
        dets = {r.image_id: [{"image_id": r.image_id, "class_id": i.class_id,
                              "score": 1.0, "bbox": i.box} for i in r.instances]
                for r in records}
        gts = {r.image_id: r.instances for r in records}
        m, _ = metrics.map50(dets, gts, manifest.num_classes)
        assert f"{m:.3f}" == "100.000"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen + short max/mask trainings, shared by the CLI tests below."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    cli.main(["gen", "--config", gen_config(root, data, n_images=8)])
    ckpts = {}
    for variant in ("max", "mask"):
        out = root / f"train-{variant}"
        cfg = write_config(root / f"train-{variant}.json", dataset=str(data),
                           model={"pooling_variant": variant, "image_size": 64,
                                  "channels": [8, 16, 24, 24]},
                           iterations=40, batch_size=8, seed=3, out=str(out))
        assert cli.main(["train", "--config", cfg]) == 0
        ckpts[variant] = out / "checkpoint.mplb"
    return root, data, ckpts


class TestPipeline:
    def test_train_wrote_checkpoint(self, pipeline):
        _, _, ckpts = pipeline
        ckpt = detector.load_checkpoint(ckpts["max"])
        assert ckpt.iterations == 40 and ckpt.config.pooling_variant == "max"

    def test_eval_outputs_and_determinism(self, pipeline, tmp_path):
        root, data, ckpts = pipeline
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.json", dataset=str(data),
                               checkpoint=str(ckpts["max"]), out=str(out))
            assert cli.main(["eval", "--config", cfg]) == 0
            outs.append(out)
        assert (outs[0] / "eval.json").read_bytes() == (outs[1] / "eval.json").read_bytes()
        dets = json.loads((outs[0] / "detections.json").read_text())
        assert all(set(d) == {"image_id", "class_id", "score", "bbox"} for d in dets)

    def test_zero_iteration_train_matches_init(self, pipeline, tmp_path):
        root, data, _ = pipeline
        out = tmp_path / "t0"
        cfg = write_config(tmp_path / "t0.json", dataset=str(data),
                           model={"pooling_variant": "max", "image_size": 64,
                                  "channels": [8, 16, 24, 24]},
                           iterations=0, seed=3, out=str(out))
        assert cli.main(["train", "--config", cfg]) == 0
        ckpt = detector.load_checkpoint(out / "checkpoint.mplb")
        init = detector.build_model(ckpt.config, seed=3)
        assert np.array_equal(ckpt.tensors["stem.weight"], init.layers["stem"].weights)

    def test_swap_bg_materializes_dataset(self, pipeline, tmp_path):
        root, data, _ = pipeline
        out = tmp_path / "swapped"
        cfg = write_config(tmp_path / "s.json", dataset=str(data), mode="random",
                           bg={"generate": {"n": 4}}, seed=2, out=str(out))
        assert cli.main(["swap-bg", "--config", cfg]) == 0
        swapped = scenegen.load_dataset(out)
        original = scenegen.load_dataset(data)
        assert len(swapped) == len(original)
        a, b = original.load_record(0), swapped.load_record(0)
        assert b.image_id == a.image_id + "+rbg"
        assert np.array_equal(a.fg_mask, b.fg_mask)
        assert not np.array_equal(a.image, b.image)

    def test_perturb_replayable_bitwise(self, pipeline, tmp_path):
        root, data, ckpts = pipeline
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.json", dataset=str(data),
                               checkpoint=str(ckpts["mask"]), weights=[0.5, 1.0, 2.0],
                               out=str(out))
            assert cli.main(["perturb", "--config", cfg, "--threads", "1"]) == 0
            outs.append(out)
        assert (outs[0] / "sweep.json").read_bytes() == (outs[1] / "sweep.json").read_bytes()
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()

    def test_perturb_threads_flag_same_bytes(self, pipeline, tmp_path):
        root, data, ckpts = pipeline
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            cfg = write_config(tmp_path / f"t{threads}.json", dataset=str(data),
                               checkpoint=str(ckpts["mask"]), weights=[0.5, 1.0, 2.0],
                               out=str(out))
            assert cli.main(["perturb", "--config", cfg, "--threads", threads]) == 0
            outs.append(out)
        for name in ("sweep.json", "sweep.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_perturb_all_stages_reaches_runner(self, pipeline, tmp_path, monkeypatch):
        root, data, ckpts = pipeline
        runner = experiments.run_bg_activation_sweep
        seen = []

        def spy(*args, **kwargs):
            bound = inspect.signature(runner).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["perturb_all_stages"])
            return runner(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_bg_activation_sweep", spy)
        for name, extra in (("on", {"perturb_all_stages": True}), ("off", {})):
            cfg = write_config(tmp_path / f"{name}.json", dataset=str(data),
                               checkpoint=str(ckpts["max"]), weights=[0.5], out=str(tmp_path / name),
                               **extra)
            assert cli.main(["perturb", "--config", cfg]) == 0
        assert seen == [True, False]

    def test_ablate_requires_mask_variant(self, pipeline, tmp_path):
        root, data, ckpts = pipeline
        cfg = write_config(tmp_path / "a.json", dataset=str(data),
                           checkpoint=str(ckpts["max"]), out=str(tmp_path / "abl"))
        assert cli.main(["ablate", "--config", cfg]) == 1

    def test_ablate_and_report_merge(self, pipeline, tmp_path):
        root, data, ckpts = pipeline
        abl_out = tmp_path / "abl"
        cfg = write_config(tmp_path / "a.json", dataset=str(data),
                           checkpoint=str(ckpts["mask"]), factors=[1.1],
                           out=str(abl_out))
        assert cli.main(["ablate", "--config", cfg]) == 0
        per_out = tmp_path / "per"
        cfg = write_config(tmp_path / "p.json", dataset=str(data),
                           checkpoint=str(ckpts["mask"]), weights=[0.5, 1.0],
                           out=str(per_out))
        assert cli.main(["perturb", "--config", cfg]) == 0
        rep_out = tmp_path / "rep"
        cfg = write_config(tmp_path / "r.json",
                           reports=[str(abl_out / "ablation.json"), str(per_out / "sweep.json")],
                           diff={"a": str(per_out / "sweep.json"),
                                 "b": str(abl_out / "ablation.json")},
                           out=str(rep_out))
        assert cli.main(["report", "--config", cfg]) == 0
        summary = json.loads((rep_out / "summary.json").read_text())
        assert len(summary["reports"]) == 2
        assert {"mean", "std", "min", "max", "diff"} <= set(summary["reports"][0])
        assert (rep_out / "summary.csv").exists()
        assert (rep_out / "diff.txt").exists()
        diff = json.loads((rep_out / "diff.json").read_text())
        assert diff["schema"] == 1 and "rows" in diff


class TestEntryPoint:
    def test_console_script_help(self):
        # the child imports the package the tests import, installed or not
        src = str(Path(maskpool_lab.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "maskpool_lab.cli", "--help"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        for command in ("gen", "train", "eval", "swap-bg", "perturb", "ablate", "report"):
            assert command in proc.stdout
