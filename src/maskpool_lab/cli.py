"""Config-driven command line: gen | train | eval | swap-bg | perturb | ablate | report.

Every command reads a JSON config with a required ``"schema": 1`` field and
rejects unknown keys.  Flags override config values (flags > config >
defaults); all seeds are explicit.  Each run writes its outputs plus a
``run.json`` manifest (config hash, seed, artifact paths) under the output
directory.  Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import detector, experiments, metrics, nn, scenegen
from .errors import ConfigurationError, ParseError, load_json, write_json

log = logging.getLogger(__name__)

_ALLOWED_KEYS = {
    "gen": {"schema", "n_images", "image_size", "classes", "textures", "bias",
            "objects_per_image", "size_range", "seed", "out"},
    "train": {"schema", "dataset", "model", "optimizer", "iterations", "batch_size",
              "seed", "out"},
    "eval": {"schema", "dataset", "checkpoint", "seed", "out"},
    "swap-bg": {"schema", "dataset", "mode", "bg", "feather_radius", "seed", "out"},
    "perturb": {"schema", "dataset", "checkpoint", "weights", "perturb_all_stages",
                "seed", "out"},
    "ablate": {"schema", "dataset", "checkpoint", "factors", "seed", "out"},
    "report": {"schema", "reports", "diff", "seed", "out"},
}

_OPTIMIZER_KEYS = {"learning_rate", "momentum", "weight_decay"}


def _load_config(path, command: str) -> dict:
    cfg = load_json(path, f"config file not found: {path}")
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
    if cfg.get("schema") != 1:
        raise ConfigurationError(f"{path}: config requires \"schema\": 1")
    unknown = set(cfg) - _ALLOWED_KEYS[command]
    if unknown:
        raise ConfigurationError(f"{path}: unknown config keys for {command}: {sorted(unknown)}")
    return cfg


def _resolve(cfg: dict, args, key: str, default=None, required: bool = False):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigurationError(f"missing required config key {key!r}")
    return default


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_run_manifest(out_dir: Path, command: str, cfg: dict, seed, artifacts) -> None:
    doc = {
        "schema": 1,
        "command": command,
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "artifacts": sorted(str(a) for a in artifacts),
    }
    write_json(out_dir / "run.json", doc)


def _out_dir(cfg, args) -> Path:
    out = Path(_resolve(cfg, args, "out", required=True))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _bias_from_config(spec, n_classes: int, n_textures: int) -> scenegen.BiasSpec:
    if spec is None:
        return scenegen.BiasSpec.concentrated(n_classes, n_textures, 0.85)
    if isinstance(spec, dict):
        extra = set(spec) - {"concentration"}
        if extra:
            raise ConfigurationError(f"unknown bias keys: {sorted(extra)}")
        if "concentration" in spec:
            return scenegen.BiasSpec.concentrated(n_classes, n_textures, float(spec["concentration"]))
        return scenegen.BiasSpec.uniform(n_classes, n_textures)
    return scenegen.BiasSpec(np.asarray(spec, dtype=np.float64))


def _bg_pool_from_config(spec, image_size: int, seed: int):
    if spec is None:
        spec = {"generate": {"n": 16}}
    if not isinstance(spec, dict) or not ({"dir", "generate"} & set(spec)):
        raise ConfigurationError("bg config must carry 'dir' or 'generate'")
    if "dir" in spec:
        return scenegen.load_bg_pool(spec["dir"])
    gen = dict(spec["generate"])
    extra = set(gen) - {"n", "seed", "size"}
    if extra:
        raise ConfigurationError(f"unknown bg.generate keys: {sorted(extra)}")
    return scenegen.generate_bg_pool(int(gen.get("n", 16)), int(gen.get("size", image_size)),
                                     int(gen.get("seed", seed)))


def _checkpoint_ids(ckpt_path, dataset_path):
    model_id = Path(ckpt_path).stem
    dataset_id = Path(dataset_path).name or str(dataset_path)
    if dataset_id == "manifest.json":
        dataset_id = Path(dataset_path).parent.name
    return model_id, dataset_id


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seed = int(_resolve(cfg, args, "seed", 0))
    classes = cfg.get("classes", list(scenegen.DEFAULT_CLASSES))
    textures = cfg.get("textures", list(scenegen.DEFAULT_TEXTURES))
    bias = _bias_from_config(cfg.get("bias"), len(classes), len(textures))
    manifest = scenegen.generate_dataset(
        n_images=int(_resolve(cfg, args, "n_images", required=True)),
        image_size=int(cfg.get("image_size", 128)),
        classes=tuple(classes), textures=tuple(textures), bias=bias,
        objects_per_image=tuple(cfg.get("objects_per_image", (1, 4))),
        seed=seed, out_dir=out,
        size_range=tuple(cfg.get("size_range", (16, 44))))
    _write_run_manifest(out, "gen", cfg, seed, ["manifest.json"])
    log.info("generated %d images under %s", len(manifest), out)
    return 0


def cmd_train(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seed = int(_resolve(cfg, args, "seed", 0))
    dataset = scenegen.load_dataset(_resolve(cfg, args, "dataset", required=True))
    model_cfg = detector.ModelConfig.from_dict(cfg.get("model", {}))
    opt_raw = cfg.get("optimizer", {})
    unknown = set(opt_raw) - _OPTIMIZER_KEYS
    if unknown:
        raise ConfigurationError(f"unknown optimizer keys: {sorted(unknown)}")
    opt_cfg = nn.OptimizerConfig(**opt_raw)
    ckpt = detector.train(dataset, model_cfg, opt_cfg,
                          iterations=int(cfg.get("iterations", 3000)),
                          batch_size=int(cfg.get("batch_size", 8)),
                          seed=seed)
    ckpt_path = out / "checkpoint.mplb"
    detector.save_checkpoint(ckpt, ckpt_path)
    _write_run_manifest(out, "train", cfg, seed, [ckpt_path.name])
    log.info("checkpoint written to %s", ckpt_path)
    return 0


def cmd_eval(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seed = int(_resolve(cfg, args, "seed", 0))
    dataset = scenegen.load_dataset(_resolve(cfg, args, "dataset", required=True))
    ckpt = detector.load_checkpoint(_resolve(cfg, args, "checkpoint", required=True))
    model = detector.model_from_checkpoint(ckpt)
    records, class_names = experiments.load_records(dataset)
    result = experiments.evaluate_records(model, records, class_names)
    doc = {"schema": 1, "map50": result.map50,
           "per_class_ap": result.per_class_ap,
           "per_class_hf": {str(k): list(v) for k, v in result.per_class_hf.items()}}
    write_json(out / "eval.json", doc)
    dets = [{"image_id": img, "class_id": d.class_id, "score": d.score, "bbox": list(d.box)}
            for img in sorted(result.dets_by_image)
            for d in result.dets_by_image[img]]
    write_json(out / "detections.json", dets)
    _write_run_manifest(out, "eval", cfg, seed, ["eval.json", "detections.json"])
    log.info("mAP50 %.3f", result.map50)
    return 0


def cmd_swap_bg(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seed = int(_resolve(cfg, args, "seed", 0))
    dataset = scenegen.load_dataset(_resolve(cfg, args, "dataset", required=True))
    records, class_names = experiments.load_records(dataset)
    image_size = records[0].image.shape[0] if records else 128
    pool = _bg_pool_from_config(cfg.get("bg"), image_size, seed)
    mode = cfg.get("mode", "random")
    feather = int(cfg.get("feather_radius", 0))
    if mode == "random":
        swapped = [scenegen.composite_random_bg(r, pool, seed, feather) for r in records]
    elif mode == "fixed":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
        bg = pool[int(rng.integers(len(pool)))]
        swapped = scenegen.composite_fixed_bg(records, bg, feather)
    else:
        raise ConfigurationError(f"swap-bg mode must be random|fixed, got {mode!r}")
    scenegen.save_dataset(swapped, class_names, out, seed=seed, bias=None)
    _write_run_manifest(out, "swap-bg", cfg, seed, ["manifest.json"])
    log.info("materialized %d swapped images under %s", len(swapped), out)
    return 0


def cmd_perturb(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seed = int(_resolve(cfg, args, "seed", 0))
    dataset_path = _resolve(cfg, args, "dataset", required=True)
    ckpt_path = _resolve(cfg, args, "checkpoint", required=True)
    dataset = scenegen.load_dataset(dataset_path)
    ckpt = detector.load_checkpoint(ckpt_path)
    sweep = experiments.SweepSpec(tuple(cfg["weights"])) if "weights" in cfg else None
    model_id, dataset_id = _checkpoint_ids(ckpt_path, dataset_path)
    report = experiments.run_bg_activation_sweep(
        ckpt, dataset, sweep, bool(cfg.get("perturb_all_stages", False)),
        threads=args.threads, model_id=model_id, dataset_id=dataset_id)
    report.write_json(out / "sweep.json")
    report.write_csv(out / "sweep.csv")
    _write_run_manifest(out, "perturb", cfg, seed, ["sweep.json", "sweep.csv"])
    agg = report.aggregates["map50"]
    log.info("sweep min %.3f max %.3f diff %.3f", agg["min"], agg["max"], agg["diff"])
    return 0


def cmd_ablate(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seed = int(_resolve(cfg, args, "seed", 0))
    dataset_path = _resolve(cfg, args, "dataset", required=True)
    ckpt_path = _resolve(cfg, args, "checkpoint", required=True)
    dataset = scenegen.load_dataset(dataset_path)
    ckpt = detector.load_checkpoint(ckpt_path)
    model_id, dataset_id = _checkpoint_ids(ckpt_path, dataset_path)
    report = experiments.run_boundary_ablation(
        ckpt, dataset, tuple(cfg.get("factors", experiments.DEFAULT_MORPH_FACTORS)),
        threads=args.threads, model_id=model_id, dataset_id=dataset_id)
    report.write_json(out / "ablation.json")
    report.write_csv(out / "ablation.csv")
    _write_run_manifest(out, "ablate", cfg, seed, ["ablation.json", "ablation.csv"])
    return 0


def cmd_report(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seed = int(_resolve(cfg, args, "seed", 0))
    paths = cfg.get("reports", [])
    if not paths:
        raise ConfigurationError("report command needs a non-empty 'reports' list")
    reports = [experiments.ExperimentReport.read_json(p) for p in paths]
    summary = {"schema": 1, "reports": []}
    for p, rep in zip(paths, reports):
        agg = rep.aggregates["map50"]
        summary["reports"].append({"path": str(p), "model_id": rep.model_id,
                                   "dataset_id": rep.dataset_id,
                                   "intervention": rep.intervention, **agg})
    write_json(out / "summary.json", summary)
    with open(out / "summary.csv", "w") as f:
        f.write("model_id,dataset_id,intervention,mean,std,min,max,diff\n")
        for row in summary["reports"]:
            f.write(f"{row['model_id']},{row['dataset_id']},{row['intervention']},"
                    f"{row['mean']:.3f},{row['std']:.3f},{row['min']:.3f},"
                    f"{row['max']:.3f},{row['diff']:.3f}\n")
    artifacts = ["summary.json", "summary.csv"]
    if "diff" in cfg:
        d = cfg["diff"]
        if set(d) - {"a", "b"}:
            raise ConfigurationError("diff config takes exactly keys 'a' and 'b'")
        rep_a = experiments.ExperimentReport.read_json(d["a"])
        rep_b = experiments.ExperimentReport.read_json(d["b"])
        diff = experiments.diff_report(rep_a, rep_b, rep_a.model_id, rep_b.model_id)
        write_json(out / "diff.json", diff)
        (out / "diff.txt").write_text(experiments.render_diff_table(diff) + "\n")
        artifacts += ["diff.json", "diff.txt"]
    _write_run_manifest(out, "report", cfg, seed, artifacts)
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "swap-bg": cmd_swap_bg,
    "perturb": cmd_perturb,
    "ablate": cmd_ablate,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maskpool-lab",
                                     description="pooling-variant context-bias laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--threads", type=int, default=1, help="worker cap (default 1)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigurationError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
