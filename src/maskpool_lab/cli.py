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

from . import detector, experiments, nn, scenegen
from .errors import ConfigurationError, ParseError, check_number, check_numbers, load_json, write_json

log = logging.getLogger(__name__)

_ALLOWED_KEYS = {
    "gen": {"schema", "n_images", "image_size", "classes", "textures", "bias",
            "objects_per_image", "size_range", "seed", "out"},
    "train": {"schema", "dataset", "model", "optimizer", "iterations", "batch_size",
              "seed", "out"},
    "eval": {"schema", "dataset", "checkpoint", "seed", "out"},
    "swap-bg": {"schema", "dataset", "mode", "bg", "seed", "out"},
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


def _int(cfg: dict, args, key: str, default=None, minimum=None) -> int:
    """``_resolve`` of an integer value, required when it has no default."""
    return check_number(_resolve(cfg, args, key, default, required=default is None), key,
                        integer=True, minimum=minimum)


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key} must be an object, got {value!r}")
    return value


def _bias_from_config(spec, n_classes: int, n_textures: int) -> scenegen.BiasSpec:
    if spec is None:
        return scenegen.BiasSpec.concentrated(n_classes, n_textures, 0.85)
    if isinstance(spec, dict):
        extra = set(spec) - {"concentration"}
        if extra:
            raise ConfigurationError(f"unknown bias keys: {sorted(extra)}")
        if "concentration" in spec:
            p = check_number(spec["concentration"], "bias.concentration")
            return scenegen.BiasSpec.concentrated(n_classes, n_textures, float(p))
        return scenegen.BiasSpec.uniform(n_classes, n_textures)
    if not (isinstance(spec, list) and all(len(check_numbers(r, "bias row")) == n_textures for r in spec)):
        raise ConfigurationError(f"bias must be an object or a list of rows of {n_textures} numbers, "
                                 f"got {spec!r}")
    return scenegen.BiasSpec(np.asarray(spec, dtype=np.float64))


def _bg_pool_from_config(spec, image_size: int, seed: int):
    if spec is None:
        spec = {"generate": {"n": 16}}
    if not (isinstance(spec, dict) and len(spec) == 1 and set(spec) <= {"dir", "generate"}):
        raise ConfigurationError(f"bg config takes one of 'dir' or 'generate' and no other key, got {spec!r}")
    if "dir" in spec:
        if not Path(spec["dir"]).is_dir():
            raise ConfigurationError(f"bg.dir {str(spec['dir'])!r} is missing or not a directory")
        return scenegen.load_bg_pool(spec["dir"])
    gen = _object(spec["generate"], "bg.generate")
    extra = set(gen) - {"n", "seed", "size"}
    if extra:
        raise ConfigurationError(f"unknown bg.generate keys: {sorted(extra)}")
    keys = (("n", 16, 1), ("size", image_size, 1), ("seed", seed, 0))  # key, default, minimum
    return scenegen.generate_bg_pool(*(check_number(gen.get(k, d), f"bg.generate.{k}", integer=True,
                                                    minimum=m) for k, d, m in keys))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: dict, args, out: Path, seed: int) -> list:
    classes, textures = (scenegen.check_names(key, cfg.get(key, known), known) for key, known in
                         (("classes", scenegen.DEFAULT_CLASSES), ("textures", scenegen.DEFAULT_TEXTURES)))
    bias = _bias_from_config(cfg.get("bias"), len(classes), len(textures))
    manifest = scenegen.generate_dataset(
        n_images=_int(cfg, args, "n_images"),
        image_size=_int(cfg, args, "image_size", 128),
        classes=classes, textures=textures, bias=bias,
        objects_per_image=cfg.get("objects_per_image", (1, 4)),
        seed=seed, out_dir=out,
        size_range=cfg.get("size_range", scenegen.DEFAULT_SIZE_RANGE))
    log.info("generated %d images under %s", len(manifest), out)
    return ["manifest.json"]


def cmd_train(cfg: dict, args, out: Path, seed: int) -> list:
    dataset = scenegen.load_dataset(_resolve(cfg, args, "dataset", required=True))
    model_cfg = detector.ModelConfig.from_dict(_object(cfg.get("model", {}), "model"))
    if model_cfg.num_classes != len(dataset.classes):
        raise ConfigurationError(f"model.num_classes is {model_cfg.num_classes}, but the dataset "
                                 f"has {len(dataset.classes)} classes {dataset.classes}")
    opt_raw = _object(cfg.get("optimizer", {}), "optimizer")
    unknown = set(opt_raw) - _OPTIMIZER_KEYS
    if unknown:
        raise ConfigurationError(f"unknown optimizer keys: {sorted(unknown)}")
    opt_cfg = nn.OptimizerConfig(**{k: check_number(v, f"optimizer.{k}") for k, v in opt_raw.items()})
    ckpt = detector.train(dataset, model_cfg, opt_cfg,
                          iterations=_int(cfg, args, "iterations", 3000, minimum=0),
                          batch_size=_int(cfg, args, "batch_size", 8, minimum=1),
                          seed=seed)
    ckpt_path = out / "checkpoint.mplb"
    detector.save_checkpoint(ckpt, ckpt_path)
    log.info("checkpoint written to %s", ckpt_path)
    return [ckpt_path.name]


def cmd_eval(cfg: dict, args, out: Path, seed: int) -> list:
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
    log.info("mAP50 %.3f", result.map50)
    return ["eval.json", "detections.json"]


def cmd_swap_bg(cfg: dict, args, out: Path, seed: int) -> list:
    dataset = scenegen.load_dataset(_resolve(cfg, args, "dataset", required=True))
    records, class_names = experiments.load_records(dataset)
    image_size = records[0].image.shape[0] if records else 128
    pool = _bg_pool_from_config(cfg.get("bg"), image_size, seed)
    mode = cfg.get("mode", "random")
    if mode == "random":
        swapped = [scenegen.composite_random_bg(r, pool, seed) for r in records]
    elif mode == "fixed":
        swapped = scenegen.composite_fixed_bg(records, pool[experiments.fixed_bg_draw(len(pool), 1, seed)[0]])
    else:
        raise ConfigurationError(f"swap-bg mode must be random|fixed, got {mode!r}")
    scenegen.save_dataset(swapped, class_names, out, seed=seed, bias=None)
    log.info("materialized %d swapped images under %s", len(swapped), out)
    return ["manifest.json"]


def _run_report(cfg: dict, args, out: Path, stem: str, runner) -> list:
    """Run ``runner(ckpt, dataset, threads=, model_id=, dataset_id=)``, the ids being the
    checkpoint file's stem and the dataset directory's name; write <stem>.json and .csv."""
    dataset_path = _resolve(cfg, args, "dataset", required=True)
    ckpt_path = _resolve(cfg, args, "checkpoint", required=True)
    dataset = scenegen.load_dataset(dataset_path)
    ckpt = detector.load_checkpoint(ckpt_path)
    dataset_id = Path(dataset_path).name or str(dataset_path)
    if dataset_id == "manifest.json":
        dataset_id = Path(dataset_path).parent.name
    report = runner(ckpt, dataset, threads=args.threads, model_id=Path(ckpt_path).stem, dataset_id=dataset_id)
    report.write_json(out / f"{stem}.json")
    report.write_csv(out / f"{stem}.csv")
    agg = report.aggregates["map50"]
    log.info("%s mAP50 min %.3f max %.3f diff %.3f", stem, agg["min"], agg["max"], agg["diff"])
    return [f"{stem}.json", f"{stem}.csv"]


def cmd_perturb(cfg: dict, args, out: Path, seed: int) -> list:
    every = cfg.get("perturb_all_stages", False)
    if not isinstance(every, bool):
        raise ConfigurationError(f"perturb_all_stages must be true or false, got {every!r}")
    sweep = experiments.SweepSpec(cfg["weights"]) if "weights" in cfg else None
    return _run_report(cfg, args, out, "sweep", lambda ckpt, dataset, **kw:
                       experiments.run_bg_activation_sweep(ckpt, dataset, sweep, every, **kw))


def cmd_ablate(cfg: dict, args, out: Path, seed: int) -> list:
    factors = cfg.get("factors", experiments.DEFAULT_MORPH_FACTORS)
    return _run_report(cfg, args, out, "ablation", lambda ckpt, dataset, **kw:
                       experiments.run_boundary_ablation(ckpt, dataset, factors, **kw))


def cmd_report(cfg: dict, args, out: Path, seed: int) -> list:
    paths = cfg.get("reports", [])
    if not (paths and isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
        raise ConfigurationError(f"report command needs a non-empty 'reports' list of paths, got {paths!r}")
    diff = cfg.get("diff", {})
    if "diff" in cfg and not (isinstance(diff, dict) and set(diff) == {"a", "b"}):
        raise ConfigurationError(f"diff must be an object with exactly keys 'a' and 'b', got {diff!r}")
    for key, path in diff.items():
        if not isinstance(path, str):
            raise ConfigurationError(f"diff.{key} must be a report path, got {path!r}")
    diffed = [diff[k] for k in ("a", "b")] if diff else []
    reports = [experiments.ExperimentReport.read_json(p) for p in paths + diffed]  # all checked before any write
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
    if not diff:
        return ["summary.json", "summary.csv"]
    rep_a, rep_b = reports[-2:]
    la, lb = rep_a.model_id, rep_b.model_id
    if la == lb or {la, lb} & {"fg", "diff"}:  # the labels key each row's values
        la, lb = f"a:{la}", f"b:{lb}"
    table = experiments.diff_report(rep_a.in_domain.per_class_hf, rep_b.in_domain.per_class_hf, la, lb)
    write_json(out / "diff.json", table)
    (out / "diff.txt").write_text(experiments.render_diff_table(table) + "\n")
    return ["summary.json", "summary.csv", "diff.json", "diff.txt"]


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
    """Resolve ``out`` (created) and ``seed``, run the command, then write ``run.json``
    listing the artifacts it returns; a command that raises leaves no ``run.json``."""
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        out = Path(_resolve(cfg, args, "out", required=True))
        out.mkdir(parents=True, exist_ok=True)
        seed = _int(cfg, args, "seed", 0, minimum=0)
        check_number(args.threads, "--threads", integer=True, minimum=1)
        artifacts = _COMMANDS[args.command](cfg, args, out, seed)
        blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
        doc = {"schema": 1, "command": args.command, "config_hash": hashlib.sha256(blob).hexdigest(),
               "seed": seed, "artifacts": sorted(artifacts)}
        write_json(out / "run.json", doc)
        return 0
    except (ConfigurationError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
