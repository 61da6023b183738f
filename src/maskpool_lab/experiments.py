"""Causal-intervention harness: activation sweeps, background swaps, mask ablation,
and the multi-seed max-vs-mask study built from them (``run_study``).

Every runner takes a trained checkpoint plus a dataset and emits an
ExperimentReport: one row per evaluation (sweep weight, repetition or
morphology factor) with mAP50, per-class AP and per-class hierarchical F1,
plus mean/std/min/max/diff aggregates.  Reports are pure functions of
(checkpoint, dataset, intervention config, seed): no timestamps, fixed
iteration order, so identical runs produce identical files.
"""

from __future__ import annotations

import csv
import logging
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import detector, maskpool, metrics, nn, scenegen
from .errors import ConfigurationError, check_numbers, load_json, write_json

log = logging.getLogger(__name__)

DEFAULT_SWEEP_WEIGHTS = tuple(0.5 + 0.25 * k for k in range(10))  # 0.5 .. 2.75
DEFAULT_MORPH_FACTORS = (0.8, 0.9, 1.1, 1.2)


@dataclass
class SweepSpec:
    weights: tuple = DEFAULT_SWEEP_WEIGHTS

    def __post_init__(self):
        w = tuple(float(v) for v in check_numbers(self.weights, "sweep weights"))
        if not w:
            raise ConfigurationError("sweep needs at least one weight")
        if any(b <= a for a, b in zip(w, w[1:])):
            raise ConfigurationError("sweep weights must be strictly increasing")
        self.weights = w


@dataclass
class ReportRow:
    repetition: object  # sweep weight, repetition index, morph factor or "baseline"
    map50: float
    per_class_ap: dict
    per_class_hf: dict


@dataclass
class ExperimentReport:
    model_id: str
    dataset_id: str
    intervention: str
    rows: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    schema: int = 1

    @property
    def aggregates(self) -> dict:
        vals = [r.map50 for r in self.rows]
        if not vals:
            return {"map50": {}}
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        lo, hi = float(min(vals)), float(max(vals))
        return {"map50": {"mean": mean, "std": std, "min": lo, "max": hi, "diff": hi - lo}}

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "model_id": self.model_id,
            "dataset_id": self.dataset_id,
            "intervention": self.intervention,
            "notes": self.notes,
            "rows": [{"repetition": r.repetition, "map50": r.map50,
                      "per_class_ap": r.per_class_ap, "per_class_hf": r.per_class_hf}
                     for r in self.rows],
            "aggregates": self.aggregates,
        }

    @classmethod
    def from_dict(cls, d: dict, source="report dict") -> "ExperimentReport":
        """``source`` (the file a report was read from) opens every error message."""
        schema = d.get("schema") if isinstance(d, dict) else None
        if schema != 1:
            raise ConfigurationError(f"{source}: unsupported report schema {schema!r}")
        try:
            rep = cls(model_id=d["model_id"], dataset_id=d["dataset_id"],
                      intervention=d["intervention"], notes=d.get("notes", {}))
            rep.rows = [ReportRow(r["repetition"], r["map50"], r["per_class_ap"], r["per_class_hf"])
                        for r in d["rows"]]
        except (KeyError, TypeError) as e:  # an entry missing, or rows that are not objects
            raise ConfigurationError(f"{source}: malformed report ({type(e).__name__}: {e})") from None
        if not rep.rows:
            raise ConfigurationError(f"{source}: report has no rows")
        return rep

    def write_json(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def read_json(cls, path) -> "ExperimentReport":
        return cls.from_dict(load_json(path, f"report file not found: {path}"), path)

    def write_csv(self, path) -> None:
        classes = sorted({c for r in self.rows for c in r.per_class_ap}, key=str)
        header = (["model_id", "dataset_id", "intervention", "repetition", "map50"]
                  + [f"ap:{c}" for c in classes] + [f"hf:{c}" for c in classes])
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for r in self.rows:
                def fmt(v):
                    return "" if v is None else f"{v:.6f}"
                hf = r.per_class_hf or {}
                w.writerow([self.model_id, self.dataset_id, self.intervention, r.repetition,
                            f"{r.map50:.6f}"]
                           + [fmt(r.per_class_ap.get(c)) for c in classes]
                           + [fmt(hf[c][2] if isinstance(hf.get(c), (list, tuple)) else hf.get(c))
                              for c in classes])


# ---------------------------------------------------------------------------
# evaluation core
# ---------------------------------------------------------------------------

def load_records(dataset):
    """Accepts a DatasetManifest or a list of ImageRecord; returns (records, class_names)."""
    if hasattr(dataset, "load_all"):
        return dataset.load_all(), list(dataset.classes)
    return list(dataset), list(scenegen.DEFAULT_CLASSES)


@dataclass
class EvalResult:
    map50: float
    per_class_ap: dict
    per_class_hf: dict
    dets_by_image: dict


def evaluate_records(model, records, class_names, levels=None,
                     bg_weight: float = 1.0, perturb_all_stages: bool = False,
                     hierarchy=None, batch_size: int = 16, *, settings=None, threads: int = 1):
    """Run inference over records and score mAP50 + hierarchical F1 for one setting:
    ``levels`` (the records' per-stride mask stacks, ``detector.mask_levels``; by default
    built from their own masks), ``bg_weight`` and ``perturb_all_stages``.  Given
    ``settings``, a list of such triples, scores each in the same pass over the batches
    and returns a list with one EvalResult per setting.

    Every setting's op list starts with the same Conv/Relu ops before its first mask
    reader, so a batch runs them once and ``threads`` settings at a time go on from there:
    bit for bit a walk per setting only because no op writes to its input."""
    one = settings is None
    if one:
        if levels is None:
            levels = detector.mask_levels(model.cfg, [r.fg_mask for r in records], bg_weight,
                                          perturb_all_stages)
        settings = [(levels, bg_weight, perturb_all_stages)]
    cfg = model.cfg
    op_lists = [detector.build_ops(cfg, detector.bg_mode(w, every)) for _, w, every in settings]
    split = min(next((i for i, op in enumerate(ops) if op.mask_stride is not None), len(ops))
                for ops in op_lists)
    dets = [{} for _ in settings]
    for start in range(0, len(records), batch_size):
        chunk = records[start:start + batch_size]
        x = detector.images_to_tensor(np.stack([r.image for r in chunk]))
        x = detector.Pass(op_lists[0][:split], model).forward(x)

        def finish(k):
            lv, w, _ = settings[k]
            rows = lv and {s: m[start:start + batch_size] for s, m in lv.items()}
            raw = detector.Pass(op_lists[k][split:], model, rows, w).forward(x)
            head = detector.DetHeadOutput.from_raw(raw, cfg.num_classes)
            for rec, d in zip(chunk, detector.decode(head, cfg)):
                dets[k][rec.image_id] = detector.nms(d, cfg.nms_iou)

        _map_ordered(finish, range(len(settings)), threads)
    gts_by_image = {r.image_id: r.instances for r in records}
    hierarchy = hierarchy or metrics.hierarchy_for(class_names)

    def score(dets_by_image):
        m, per_class = metrics.map50(dets_by_image, gts_by_image, len(class_names))
        hf = metrics.hierarchical_f1(dets_by_image, gts_by_image, hierarchy, class_names=class_names)
        return EvalResult(m, {class_names[c]: v for c, v in per_class.items()}, hf, dets_by_image)

    results = _map_ordered(score, dets, threads)
    return results[0] if one else results


def _model_of(ckpt_or_model):
    if isinstance(ckpt_or_model, detector.Model):
        return ckpt_or_model
    return detector.model_from_checkpoint(ckpt_or_model)


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# interventions
# ---------------------------------------------------------------------------

def run_bg_activation_sweep(ckpt, dataset, sweep: SweepSpec | None = None,
                            perturb_all_stages: bool = False, threads: int = 1,
                            model_id: str = "model", dataset_id: str = "dataset") -> ExperimentReport:
    """Scale background activations at the pooling slot's input by each sweep
    weight and score the model; applies to every pooling variant."""
    sweep = sweep or SweepSpec()
    model = _model_of(ckpt)
    records, class_names = load_records(dataset)
    # every weight but 1 walks the same op list; w = 1 reads a subset of its levels
    perturbed = next((w for w in sweep.weights if w != 1.0), 1.0)
    levels = detector.mask_levels(model.cfg, [r.fg_mask for r in records],
                                  perturbed, perturb_all_stages)
    results = evaluate_records(model, records, class_names, threads=threads,
                               settings=[(levels, w, perturb_all_stages) for w in sweep.weights])
    report = ExperimentReport(model_id, dataset_id, "bg_activation_sweep")
    report.rows = [ReportRow(w, r.map50, r.per_class_ap, r.per_class_hf)
                   for w, r in zip(sweep.weights, results)]
    return report


def run_random_bg_eval(ckpt, dataset, bg_pool, repetitions: int = 5, seed: int = 0,
                       feather_radius: int = 0, threads: int = 1,
                       model_id: str = "model", dataset_id: str = "dataset") -> ExperimentReport:
    """Re-composite every record onto a random pool background, per repetition."""
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    if not bg_pool:
        raise ConfigurationError("background pool is empty")
    model = _model_of(ckpt)
    records, class_names = load_records(dataset)
    levels = detector.mask_levels(model.cfg, [r.fg_mask for r in records])

    def one(rep):
        swapped = [scenegen.composite_random_bg(r, bg_pool, seed ^ rep, feather_radius)
                   for r in records]
        r = evaluate_records(model, swapped, class_names, levels=levels)
        return ReportRow(rep, r.map50, r.per_class_ap, r.per_class_hf)

    report = ExperimentReport(model_id, dataset_id, "random_bg",
                              notes={"bg_fit": "aspect-preserving scale + center crop"})
    report.rows = _map_ordered(one, list(range(repetitions)), threads)
    return report


def run_fixed_bg_eval(ckpt, dataset, bg_pool, repetitions: int = 5, seed: int = 0,
                      feather_radius: int = 0, threads: int = 1,
                      model_id: str = "model", dataset_id: str = "dataset") -> ExperimentReport:
    """One shared background per repetition, sampled from the pool without replacement."""
    if not 1 <= repetitions <= len(bg_pool):
        raise ConfigurationError(f"repetitions must be between 1 and the pool size, got "
                                 f"{repetitions} repetitions for {len(bg_pool)} backgrounds")
    model = _model_of(ckpt)
    records, class_names = load_records(dataset)
    levels = detector.mask_levels(model.cfg, [r.fg_mask for r in records])
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 11)))
    chosen = [int(i) for i in rng.choice(len(bg_pool), size=repetitions, replace=False)]

    def one(bg_index):
        swapped = scenegen.composite_fixed_bg(records, bg_pool[bg_index], feather_radius)
        r = evaluate_records(model, swapped, class_names, levels=levels)
        return ReportRow(bg_index, r.map50, r.per_class_ap, r.per_class_hf)

    report = ExperimentReport(model_id, dataset_id, "fixed_bg",
                              notes={"bg_fit": "aspect-preserving scale + center crop"})
    report.rows = _map_ordered(one, chosen, threads)
    return report


def run_boundary_ablation(ckpt, dataset, factors=DEFAULT_MORPH_FACTORS, threads: int = 1,
                          model_id: str = "model", dataset_id: str = "dataset") -> ExperimentReport:
    """Feed the mask-pooling model morphologically perturbed masks (ground truth
    unchanged) and score per factor; mask-variant checkpoints only."""
    factors = [float(f) for f in check_numbers(factors, "factors")]
    model = _model_of(ckpt)
    if model.cfg.pooling_variant != "mask":
        raise ConfigurationError("boundary ablation applies to the mask pooling variant only")
    records, class_names = load_records(dataset)
    masks = [r.fg_mask for r in records]
    settings = [(detector.mask_levels(model.cfg, masks), 1.0, False)]
    for f in factors:
        perturbed = [maskpool.morph_perturb(m, "dilate" if f > 1 else "erode", f) for m in masks]
        settings.append((detector.mask_levels(model.cfg, perturbed), 1.0, False))
    results = evaluate_records(model, records, class_names, settings=settings, threads=threads)
    report = ExperimentReport(model_id, dataset_id, "boundary_ablation")
    report.rows = [ReportRow(label, r.map50, r.per_class_ap, r.per_class_hf)
                   for label, r in zip(["baseline", *factors], results)]
    return report


# ---------------------------------------------------------------------------
# diff tables
# ---------------------------------------------------------------------------

def _per_class_hf(source) -> dict:
    if isinstance(source, ExperimentReport):
        if not source.rows:
            return {}
        return source.rows[0].per_class_hf or {}
    return source


def diff_report(report_a, report_b, label_a: str = "A", label_b: str = "B") -> dict:
    """Per-class hierarchical-F1 difference table (fg, A, B, Diff).

    Missing classes carry None (rendered as dashes); also counts how many
    classes improved out of the comparable pairs.
    """
    hf_a, hf_b = _per_class_hf(report_a), _per_class_hf(report_b)
    if hf_a and hf_b and not set(hf_a) & set(hf_b):
        warnings.warn("diff_report: class sets are disjoint, rendering dashes only")
    rows = []
    improved = pairs = 0
    for cls, (a, b, diff) in metrics.f1_diff(hf_a, hf_b).items():
        rows.append({"fg": cls, label_a: a, label_b: b, "diff": diff})
        if diff is not None:
            pairs += 1
            improved += diff > 0
    return {"schema": 1, "label_a": label_a, "label_b": label_b,
            "rows": rows, "improved": improved, "pairs": pairs}


def render_diff_table(diff: dict) -> str:
    """Plain-text table with dashes for missing values."""
    la, lb = diff["label_a"], diff["label_b"]

    def fmt(v):
        return "-" if v is None else f"{v:.6f}"

    lines = [f"{'fg':<12} {la:>10} {lb:>10} {'Diff':>10}"]
    for row in diff["rows"]:
        lines.append(f"{str(row['fg']):<12} {fmt(row[la]):>10} {fmt(row[lb]):>10} {fmt(row['diff']):>10}")
    lines.append(f"improved {diff['improved']} of {diff['pairs']} pairs")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the multi-seed context-bias study
# ---------------------------------------------------------------------------

TRAIN_SEED, VAL_SEED, BG_POOL_SEED = 1000, 2000, 3000


@dataclass
class StudySpec:
    """Scale and training settings of ``run_study``; bias-study script flags."""
    seeds: tuple = (0, 1, 2)
    train_images: int = 2000
    val_images: int = 500
    image_size: int = 128
    iterations: int = 3000
    batch_size: int = 8
    lr: float = 0.01
    bias: float = 0.85
    bg_pool: int = 16
    repetitions: int = 5


def run_study(spec: StudySpec, out) -> tuple:
    """Train max- and mask-pooling detectors per seed on the biased dataset and
    score each in-domain, under random-BG swaps and the activation sweep, plus a
    boundary ablation of each mask model.  Writes the checkpoints, one JSON and
    CSV report per (intervention, variant, seed) and summary.json under ``out``.
    Returns the summary and the wall seconds of every runner call, keyed like
    the report files (``eval-max-seed0``, ``sweep-mask-seed1``, ...); the
    seconds enter no file, so the files stay deterministic."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    bias = scenegen.BiasSpec.concentrated(3, 4, spec.bias)
    log.info("generating %d train / %d val images (bias %.2f)",
             spec.train_images, spec.val_images, spec.bias)
    train_records = scenegen.generate_dataset(spec.train_images, spec.image_size,
                                              bias=bias, seed=TRAIN_SEED)
    val_records = scenegen.generate_dataset(spec.val_images, spec.image_size,
                                            bias=bias, seed=VAL_SEED)
    bg_pool = scenegen.generate_bg_pool(spec.bg_pool, spec.image_size, seed=BG_POOL_SEED)
    names = list(scenegen.DEFAULT_CLASSES)
    seconds = {}

    def run(key, fn, *args, **kwargs):  # times fn under key; a report goes to key.json/.csv
        t = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds[key] = time.perf_counter() - t
        if isinstance(result, ExperimentReport):
            result.write_json(out / f"{key}.json")
            result.write_csv(out / f"{key}.csv")
        return result

    config = {**asdict(spec), "seeds": list(spec.seeds), "out": str(out)}  # as json.load reads it
    summary = {"schema": 1, "seeds": {}, "config": config}
    for seed in spec.seeds:
        row = {}
        for variant in ("max", "mask"):
            model_id = f"{variant}-seed{seed}"
            t = time.perf_counter()
            cfg = detector.ModelConfig(pooling_variant=variant, image_size=spec.image_size)
            ckpt = detector.train(train_records, cfg, nn.OptimizerConfig(learning_rate=spec.lr),
                                  iterations=spec.iterations, batch_size=spec.batch_size,
                                  seed=seed, log_every=500)
            log.info("trained %s in %.1f min", model_id, (time.perf_counter() - t) / 60)
            detector.save_checkpoint(ckpt, out / f"{model_id}.mplb")
            ids = {"model_id": model_id, "dataset_id": "val"}
            base = run(f"eval-{model_id}", evaluate_records,
                       detector.model_from_checkpoint(ckpt), val_records, names)
            rb = run(f"random_bg-{model_id}", run_random_bg_eval, ckpt, val_records, bg_pool,
                     repetitions=spec.repetitions, seed=seed, **ids).aggregates["map50"]
            sweep = run(f"sweep-{model_id}", run_bg_activation_sweep, ckpt, val_records, **ids)
            row[variant] = {"in_domain": base.map50, "random_bg_mean": rb["mean"],
                            "random_bg_std": rb["std"], "drop": base.map50 - rb["mean"],
                            "sweep_diff": sweep.aggregates["map50"]["diff"],
                            "per_class_hf": {k: list(v) for k, v in base.per_class_hf.items()}}
            log.info("%s: in-domain %.2f, random-bg %.2f +- %.2f, drop %.2f, sweep diff %.2f",
                     model_id, base.map50, rb["mean"], rb["std"], row[variant]["drop"],
                     row[variant]["sweep_diff"])
            if variant == "mask":
                abl = run(f"ablation-{model_id}", run_boundary_ablation, ckpt, val_records, **ids)
                row["ablation"] = {str(r.repetition): r.map50 for r in abl.rows}
                log.info("ablation %s: %s", model_id,
                         {k: round(v, 2) for k, v in row["ablation"].items()})
        row["hf_diff"] = diff_report(row["max"]["per_class_hf"], row["mask"]["per_class_hf"],
                                     "max", "mask")
        summary["seeds"][str(seed)] = row

    rows = summary["seeds"].values()
    summary["mask_drops_less"] = sum(s["mask"]["drop"] < s["max"]["drop"] for s in rows)
    summary["mask_sweep_diff_leq"] = sum(s["mask"]["sweep_diff"] <= s["max"]["sweep_diff"]
                                         for s in rows)
    write_json(out / "summary.json", summary)
    log.info("drop(mask) < drop(max) in %d/%d seeds; sweep Diff(mask) <= Diff(max) in %d/%d",
             summary["mask_drops_less"], len(rows), summary["mask_sweep_diff_leq"], len(rows))
    return summary, seconds
