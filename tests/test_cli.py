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

    def test_feather_radius_rejected(self, tiny, tmp_path, capsys):
        # compositing is a hard paste; feather_radius no longer means anything
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", dataset=str(tiny[0]), feather_radius=2, out=str(out))
        assert cli.main(["swap-bg", "--config", cfg]) == 1
        assert "unknown config keys for swap-bg: ['feather_radius']" in capsys.readouterr().err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("command", ["gen", "train", "swap-bg"])
    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_negative_seed_exit_1(self, tiny, tmp_path, capsys, command, via):
        base = {"gen": {"n_images": 2, "image_size": 64},
                "train": {"dataset": str(tiny[0]), "iterations": 1,
                          "model": {"image_size": 64, "channels": [8, 16, 24, 24]}},
                "swap-bg": {"dataset": str(tiny[0])}}[command]
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", **base, out=str(out),
                            **({"seed": -1} if via == "config" else {}))
        flags = ["--seed", "-1"] if via == "flag" else []
        assert cli.main([command, "--config", path, *flags]) == 1
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not (out / "run.json").exists()

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["gen", "--config", str(tmp_path / "absent.json")]) == 1

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert cli.main(["gen", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("doc, expected", [
        ([1, 2], "c.json: config must be a JSON object"),
        ({"schema": 1, "image_size": 64}, "missing required config key 'n_images'"),
    ])
    def test_config_not_an_object_or_missing_a_key_exit_1(self, tmp_path, capsys, doc, expected):
        out = tmp_path / "d"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(doc, out=str(out)) if isinstance(doc, dict) else doc))
        assert cli.main(["gen", "--config", str(cfg)]) == 1
        assert expected in capsys.readouterr().err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("case, expected", [
        ("missing_file", "report file not found"),
        ("truncated_json", "byte 31"),  # the cut-off '"dataset_' string starts there
        ("no_dataset_id", "KeyError: 'dataset_id'"),
        ("no_rows", "no rows"),
        ("row_not_object", "malformed report (TypeError"),
        ("id_not_string", "model_id, dataset_id and intervention must be strings"),
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
        elif case == "id_not_string":
            text = json.dumps(dict(doc, model_id=5))
        elif case == "truncated_json":
            text = text[:40]
        path = tmp_path / "rep.json"
        if case != "missing_file":
            path.write_text(text)
        cfg = write_config(tmp_path / "r.json", reports=[str(path)], out=str(tmp_path / "out"))
        assert cli.main(["report", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and expected in err

    @pytest.mark.parametrize("where", ["reports", "diff"])
    @pytest.mark.parametrize("bad", [{"map50": "high"}, {"per_class_hf": [0.5, 0.5, 0.5]}],
                             ids=["map50_string", "hf_list"])
    def test_malformed_report_row_exit_1_before_any_file(self, tmp_path, capsys, where, bad):
        row = {"repetition": 0, "map50": 1.0, "per_class_ap": {"circle": 50.0, "square": None},
               "per_class_hf": {"circle": [1.0, 0.5, 0.6], "square": 0.0}}
        doc = {"schema": 1, "model_id": "m", "dataset_id": "d", "intervention": "sweep", "rows": [row]}
        good, broken = tmp_path / "good.json", tmp_path / "broken.json"
        good.write_text(json.dumps(doc))
        broken.write_text(json.dumps(dict(doc, rows=[row, {**row, **bad}])))
        cfg = {"reports": [str(good), str(broken)]} if where == "reports" else {
            "reports": [str(good)], "diff": {"a": str(good), "b": str(broken)}}
        out = tmp_path / "out"
        assert cli.main(["report", "--config", write_config(tmp_path / "r.json", **cfg, out=str(out))]) == 1
        err = capsys.readouterr().err
        assert f"{broken}: row 1: map50 must be a finite number" in err
        assert list(out.iterdir()) == []

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
        ("swap-bg", {"bg": {"generate": 5}}, "bg.generate"),
        ("swap-bg", {"bg": {"generate": {"n": "x"}}}, "bg.generate.n"),
        ("eval", {"seed": "x"}, "seed"),
        ("report", {"reports": "abc"}, "reports"),
        ("swap-bg", {"bg": {"generate": "ab"}}, "bg.generate"),
        ("swap-bg", {"bg": {"generate": {"size": 0}}}, "bg.generate.size"),
        ("swap-bg", {"bg": {"generate": {"size": -3}}}, "bg.generate.size"),
        ("swap-bg", {"bg": {"generate": {"seed": -1}}}, "bg.generate.seed"),
        ("swap-bg", {"bg": {"generate": {"n": 0}}}, "bg.generate.n"),
        ("perturb", {"perturb_all_stages": "false"}, "perturb_all_stages"),
        ("perturb", {"perturb_all_stages": 1}, "perturb_all_stages"),
        ("report", {"reports": ["r.json"], "diff": 5}, "diff must be an object"),
        ("report", {"reports": ["r.json"], "diff": {"a": "r.json"}}, "diff must be an object"),
        ("report", {"reports": ["r.json"], "diff": {"a": "r.json", "b": "r.json", "c": "r.json"}},
         "diff must be an object"),
        ("report", {"reports": ["r.json"], "diff": {"a": "r.json", "b": 7}}, "diff.b"),
        ("report", {"reports": ["r.json"], "diff": {"a": None, "b": "r.json"}}, "diff.a"),
        ("train", {"model": 5}, "model must be an object"),
        ("train", {"optimizer": 5}, "optimizer must be an object"),
        ("train", {"model": {"image_size": 0}}, "image_size"),
        ("train", {"model": {"image_size": -8}}, "image_size"),
        ("train", {"model": {"image_size": 64, "channels": [8, 0, 24, 24]}}, "channels entry"),
        ("train", {"model": {"image_size": 64, "channels": [8, -2, 24, 24]}}, "channels entry"),
        ("gen", {"bias": "abc"}, "bias"),
        ("gen", {"bias": [["a", 0.5, 0.25, 0.25]] * 3}, "bias row"),
        ("gen", {"bias": [[0.5, 0.5]] * 3}, "bias"),
        ("gen", {"bias": [[1.0, 0.0, 0.0, 0.0], [1.0]]}, "bias"),
        ("gen", {"bias": {"spread": 0.5}}, "unknown bias keys: ['spread']"),
        ("swap-bg", {"mode": "tiled"}, "swap-bg mode must be random|fixed, got 'tiled'"),
        ("swap-bg", {"bg": {"generate": {"count": 3}}}, "unknown bg.generate keys: ['count']"),
        ("train", {"optimizer": {"lr": 0.1}}, "unknown optimizer keys: ['lr']"),
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

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_1_exit_1(self, tmp_path, capsys, threads):
        out = tmp_path / "data"
        assert cli.main(["gen", "--config", gen_config(tmp_path, out, n_images=2), "--threads", threads]) == 1
        assert f"--threads must be an integer >= 1, got {threads}" in capsys.readouterr().err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("command, gen, expected", [
        ("eval", {"image_size": 128}, "image is 128x128 px, the model's image_size is 64"),
        ("eval", {"classes": ["triangle", "circle"]}, "2 class names for a model of 3 classes"),
        ("train", {"image_size": 128}, "image is 128x128 px, the model's image_size is 64"),
        ("train", {"classes": ["triangle", "circle"]}, "model.num_classes is 3, but the dataset has 2 classes"),
    ])
    def test_data_the_model_does_not_fit_exit_1(self, tiny, tmp_path, capsys, command, gen, expected):
        data, out = tmp_path / "data", tmp_path / "out"
        assert cli.main(["gen", "--config", gen_config(tmp_path, data, n_images=2, **gen)]) == 0
        cfg = {"eval": {"checkpoint": str(tiny[1])},
               "train": {"model": {"image_size": 64, "channels": [8, 16, 24, 24]}, "iterations": 1}}[command]
        path = write_config(tmp_path / "c.json", dataset=str(data), out=str(out), **cfg)
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert expected in err
        if "image_size" in gen:  # the first record that does not fit is named
            assert f"record {scenegen.load_dataset(data).images[0]['id']!r}" in err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("case", [*cli._COMMANDS, "report+diff"])
    def test_run_json_lists_exactly_the_files_written(self, tiny, tmp_path, case):
        command = case.split("+")[0]
        data, ckpt = (str(p) for p in tiny)
        report = str(tmp_path / "rep" / "sweep.json")
        if command == "report":
            cfg = write_config(tmp_path / "p.json", dataset=data, checkpoint=ckpt, weights=[0.5],
                               out=str(tmp_path / "rep"))
            assert cli.main(["perturb", "--config", cfg]) == 0
        cfg = {"gen": {"n_images": 2, "image_size": 64, "size_range": [12, 28]},
               "train": {"dataset": data, "iterations": 1,
                         "model": {"image_size": 64, "channels": [8, 16, 24, 24]}},
               "eval": {"dataset": data, "checkpoint": ckpt},
               "swap-bg": {"dataset": data, "bg": {"generate": {"n": 2}}},
               "perturb": {"dataset": data, "checkpoint": ckpt, "weights": [0.5]},
               "ablate": {"dataset": data, "checkpoint": ckpt, "factors": [1.2]},
               "report": {"reports": [report]},
               "report+diff": {"reports": [report], "diff": {"a": report, "b": report}}}[case]
        out = tmp_path / "out"
        assert cli.main([command, "--config", write_config(tmp_path / "c.json", **cfg, out=str(out))]) == 0
        run = json.loads((out / "run.json").read_text())
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} - {"run.json"}
        if command in ("gen", "swap-bg"):  # the manifest names the images and masks beside it
            written -= {e[k] for e in scenegen.load_dataset(out).images for k in ("file", "mask_file")}
        assert run["command"] == command and run["artifacts"] == sorted(written)


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
        m, _ = metrics.map50(dets, gts, len(manifest.classes))
        assert f"{m:.3f}" == "100.000"

    @pytest.mark.parametrize("key", ["objects_per_image", "size_range"])
    @pytest.mark.parametrize("value", [[1], ["a", "b"], [1, 2.5], [3, 2], [0, 2], 5])
    def test_malformed_range_exit_1(self, tmp_path, capsys, key, value):
        out = tmp_path / "data"
        cfg = write_config(tmp_path / "gen.json", **{"n_images": 2, "image_size": 64,
                                                     "size_range": [12, 28], key: value, "out": str(out)})
        assert cli.main(["gen", "--config", cfg]) == 1
        assert key in capsys.readouterr().err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("key", ["classes", "textures"])
    @pytest.mark.parametrize("value", [5, "abc", ["circle", "hexagon"], []])
    def test_bad_names_exit_1(self, tmp_path, capsys, key, value):
        out = tmp_path / "data"
        cfg = gen_config(tmp_path, out, n_images=2, **{key: value})
        assert cli.main(["gen", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert key in err and repr(value) in err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("bias, spec", [
        ({"concentration": 0.6}, scenegen.BiasSpec.concentrated(3, 4, 0.6)),
        ({}, scenegen.BiasSpec.uniform(3, 4)),
        ([[0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7], [0.25] * 4],
         scenegen.BiasSpec(np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7], [0.25] * 4]))),
    ], ids=["concentration", "uniform", "rows"])
    def test_bias_forms(self, tmp_path, bias, spec):
        out = tmp_path / "d"
        assert cli.main(["gen", "--config", gen_config(tmp_path, out, n_images=2, bias=bias)]) == 0
        assert scenegen.load_dataset(out).bias == spec.matrix.tolist()

    def test_names_subset_and_order_kept(self, tmp_path):
        cfg = gen_config(tmp_path, tmp_path / "data", n_images=3, classes=["triangle", "circle"],
                         textures=["noise", "stripes"])
        assert cli.main(["gen", "--config", cfg]) == 0
        manifest = scenegen.load_dataset(tmp_path / "data")
        assert manifest.classes == ["triangle", "circle"]
        assert {i["texture_id"] for e in manifest.images for i in e["instances"]} <= {0, 1}


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

    def test_swap_bg_fixed_mode_shares_one_background(self, pipeline, tmp_path):
        root, data, _ = pipeline
        out = tmp_path / "swapped"
        cfg = write_config(tmp_path / "s.json", dataset=str(data), mode="fixed",
                           bg={"generate": {"n": 4}}, seed=2, out=str(out))
        assert cli.main(["swap-bg", "--config", cfg]) == 0
        swapped, original = scenegen.load_dataset(out), scenegen.load_dataset(data)
        assert len(swapped) == len(original)
        pairs = [(original.load_record(i), swapped.load_record(i)) for i in range(len(original))]
        first_bg = pairs[0][1].fg_mask == 0
        for a, b in pairs:
            assert b.image_id == a.image_id + "+1bg"
            assert np.array_equal(a.fg_mask, b.fg_mask)
            fg = a.fg_mask.astype(bool)
            assert np.array_equal(a.image[fg], b.image[fg])
            assert not np.array_equal(a.image, b.image)
            # every image's background is the same pool image
            both = ~fg & first_bg
            assert np.array_equal(b.image[both], pairs[0][1].image[both])

    def test_swap_bg_default_pool_is_16_generated_backgrounds(self, pipeline, tmp_path):
        root, data, _ = pipeline
        out = tmp_path / "swapped"
        assert cli.main(["swap-bg", "--config", write_config(tmp_path / "s.json", dataset=str(data),
                                                             seed=2, out=str(out))]) == 0
        records = scenegen.load_dataset(data).load_all()
        pool = scenegen.generate_bg_pool(16, records[0].image.shape[0], seed=2)
        for want, got in zip(records, scenegen.load_dataset(out).load_all(), strict=True):
            assert np.array_equal(scenegen.composite_random_bg(want, pool, 2).image, got.image)

    def test_swap_bg_fixed_uses_the_fixed_bg_runs_first_background(self, pipeline, tmp_path):
        root, data, ckpts = pipeline
        out = tmp_path / "swapped"
        cfg = write_config(tmp_path / "s.json", dataset=str(data), mode="fixed",
                           bg={"generate": {"n": 7}}, seed=4, out=str(out))
        assert cli.main(["swap-bg", "--config", cfg]) == 0
        records = scenegen.load_dataset(data).load_all()
        pool = scenegen.generate_bg_pool(7, records[0].image.shape[0], seed=4)
        rep = experiments.run_fixed_bg_eval(detector.load_checkpoint(ckpts["max"]), records, pool,
                                            repetitions=1, seed=4)
        want = scenegen.composite_fixed_bg(records, pool[rep.rows[0].repetition])
        for a, b in zip(want, scenegen.load_dataset(out).load_all(), strict=True):
            assert np.array_equal(a.image, b.image)

    def test_swap_bg_reads_ppm_directory(self, pipeline, tmp_path):
        root, data, _ = pipeline
        bg_dir = tmp_path / "bgs"
        bg_dir.mkdir()
        colours = [(200, 30, 30), (30, 200, 30)]
        for i, colour in enumerate(colours):
            scenegen.write_ppm(bg_dir / f"bg{i}.ppm", np.full((64, 64, 3), colour, np.uint8))
        (bg_dir / "notes.txt").write_text("not an image")
        (bg_dir / "more.ppm").mkdir()  # a directory, not an image
        out = tmp_path / "swapped"
        cfg = write_config(tmp_path / "s.json", dataset=str(data), bg={"dir": str(bg_dir)},
                           seed=2, out=str(out))
        assert cli.main(["swap-bg", "--config", cfg]) == 0
        swapped = scenegen.load_dataset(out)
        for i in range(len(swapped)):
            b = swapped.load_record(i)
            bg = b.image[b.fg_mask == 0]
            assert any(np.all(bg == c) for c in colours)

    @pytest.mark.parametrize("case", ["missing", "file", "no images"])
    def test_swap_bg_bad_dir_exit_1(self, pipeline, tmp_path, capsys, case):
        root, data, _ = pipeline
        bg_dir = tmp_path / "bgs"
        if case == "file":
            bg_dir.write_text("a file, not a directory")
        elif case == "no images":
            bg_dir.mkdir()
            (bg_dir / "notes.txt").write_text("not an image")
        out = tmp_path / "swapped"
        cfg = write_config(tmp_path / "s.json", dataset=str(data), bg={"dir": str(bg_dir)},
                           out=str(out))
        assert cli.main(["swap-bg", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "no background images" in err if case == "no images" else "bg.dir" in err
        assert str(bg_dir) in err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("bg, names", [
        ({"dir": "BGS", "generate": {"n": 3}}, ["dir", "generate"]),
        ({"dir": "BGS", "bogus": 1}, ["bogus"]),
        ({"generate": {"n": 3}, "bogus": 1}, ["bogus"]),
        ({}, []),
    ])
    def test_swap_bg_bad_bg_keys_exit_1(self, pipeline, tmp_path, capsys, bg, names):
        root, data, _ = pipeline
        (tmp_path / "bgs").mkdir()
        scenegen.write_ppm(tmp_path / "bgs" / "bg0.ppm", np.full((64, 64, 3), 7, np.uint8))
        bg = {k: str(tmp_path / "bgs") if v == "BGS" else v for k, v in bg.items()}
        out = tmp_path / "swapped"
        cfg = write_config(tmp_path / "s.json", dataset=str(data), bg=bg, out=str(out))
        assert cli.main(["swap-bg", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "'dir' or 'generate'" in err and all(repr(k) in err for k in names)
        assert not (out / "run.json").exists()

    def test_swap_bg_png_without_pillow_exit_1(self, pipeline, tmp_path, capsys):
        root, data, _ = pipeline
        bg_dir = tmp_path / "bgs"
        bg_dir.mkdir()
        (bg_dir / "bg.png").write_bytes(b"\x89PNG\r\n\x1a\n")
        out = tmp_path / "swapped"
        cfg = write_config(tmp_path / "s.json", dataset=str(data), bg={"dir": str(bg_dir)},
                           out=str(out))
        assert cli.main(["swap-bg", "--config", cfg]) == 1
        assert "bg.png: only .ppm backgrounds are read" in capsys.readouterr().err
        assert not (out / "run.json").exists()

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

    def test_perturb_of_a_manifest_path_is_named_by_its_directory(self, pipeline, tmp_path):
        root, data, ckpts = pipeline
        out = tmp_path / "p"
        cfg = write_config(tmp_path / "p.json", dataset=str(data / "manifest.json"),
                           checkpoint=str(ckpts["max"]), weights=[1.0], out=str(out))
        assert cli.main(["perturb", "--config", cfg]) == 0
        assert json.loads((out / "sweep.json").read_text())["dataset_id"] == data.name

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

    def test_ablate_threads_flag_same_bytes(self, pipeline, tmp_path):
        root, data, ckpts = pipeline
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            cfg = write_config(tmp_path / f"t{threads}.json", dataset=str(data),
                               checkpoint=str(ckpts["mask"]), factors=[0.8, 0.9, 1.1, 1.2], out=str(out))
            assert cli.main(["ablate", "--config", cfg, "--threads", threads]) == 0
            outs.append(out)
        for name in ("ablation.json", "ablation.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert all(r["map50"] > 0 for r in json.loads((outs[0] / "ablation.json").read_text())["rows"])

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

    def test_report_diff_of_checkpoints_with_one_name_keeps_both_columns(self, pipeline, tmp_path):
        """``train`` always writes checkpoint.mplb, so both reports carry the model id
        ``checkpoint``; the diff labels them a:checkpoint and b:checkpoint.  It compares
        each sweep's in-domain w = 1 row, not its first (w = 0.5) row."""
        root, data, ckpts = pipeline
        sweeps = {}
        for variant in ("max", "mask"):
            cfg = write_config(tmp_path / f"p-{variant}.json", dataset=str(data),
                               checkpoint=str(ckpts[variant]), weights=[0.5, 1.0],
                               out=str(tmp_path / variant))
            assert cli.main(["perturb", "--config", cfg]) == 0
            sweeps[variant] = tmp_path / variant / "sweep.json"
        reps = {v: json.loads(p.read_text()) for v, p in sweeps.items()}
        assert reps["max"]["model_id"] == reps["mask"]["model_id"] == "checkpoint"
        out = tmp_path / "rep"
        cfg = write_config(tmp_path / "r.json", reports=[str(sweeps["max"])],
                           diff={"a": str(sweeps["max"]), "b": str(sweeps["mask"])}, out=str(out))
        assert cli.main(["report", "--config", cfg]) == 0
        diff = json.loads((out / "diff.json").read_text())
        assert (diff["label_a"], diff["label_b"]) == ("a:checkpoint", "b:checkpoint")
        hf = {v: next(r for r in reps[v]["rows"] if r["repetition"] == 1.0)["per_class_hf"] for v in reps}
        assert [r["fg"] for r in diff["rows"]] == sorted(set(hf["max"]) | set(hf["mask"]))
        for r in diff["rows"]:
            a, b = (hf[v][r["fg"]][2] if r["fg"] in hf[v] else None for v in ("max", "mask"))
            assert (r["a:checkpoint"], r["b:checkpoint"]) == (a, b)
            assert r["diff"] == (None if a is None or b is None else b - a)
        assert any(r["a:checkpoint"] != r["b:checkpoint"] for r in diff["rows"])
        assert "a:checkpoint" in (out / "diff.txt").read_text().splitlines()[0]


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
