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
from functools import cached_property
from pathlib import Path

import numpy as np

from . import detector, maskpool, metrics, nn, scenegen
from .errors import ConfigurationError, check_number, check_numbers, load_json, write_json

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

    @property
    def in_domain(self) -> ReportRow:
        """The unperturbed row, chosen by intervention (a random_bg repetition 1 equals 1.0 too): a
        sweep's w = 1 row or an ablation's baseline row; else, or in a sweep without w = 1, row 0."""
        label = {"bg_activation_sweep": 1.0, "boundary_ablation": "baseline"}.get(self.intervention)
        return next((r for r in self.rows if label is not None and r.repetition == label), self.rows[0])

    def to_dict(self) -> dict:
        return {**asdict(self), "aggregates": self.aggregates}

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
        if not all(isinstance(v, str) for v in (rep.model_id, rep.dataset_id, rep.intervention)):
            raise ConfigurationError(f"{source}: model_id, dataset_id and intervention must be strings")

        def finite(v):  # a JSON number: not a bool, NaN or infinity
            return isinstance(v, float) and bool(np.isfinite(v)) or type(v) is int
        for i, r in enumerate(rep.rows):
            ap, hf = r.per_class_ap, r.per_class_hf
            if not (finite(r.map50) and isinstance(ap, dict) and isinstance(hf, dict)
                    and all(v is None or finite(v) for v in ap.values())
                    and all(finite(v) or isinstance(v, list) and len(v) == 3 and all(map(finite, v))
                            for v in hf.values())):
                raise ConfigurationError(f"{source}: row {i}: map50 must be a finite number, per_class_ap "
                                         "an object of numbers or null, per_class_hf of numbers or triples")
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
                w.writerow([self.model_id, self.dataset_id, self.intervention, r.repetition,
                            f"{r.map50:.6f}"]
                           + [fmt(r.per_class_ap.get(c)) for c in classes]
                           + [fmt(_hf(r.per_class_hf.get(c))) for c in classes])


def _hf(v):
    """The hF of a per-class value, a (hP, hR, hF) triple or a bare hF; None stays None."""
    return v if v is None else float(v[2] if isinstance(v, (tuple, list)) else v)


# ---------------------------------------------------------------------------
# evaluation core
# ---------------------------------------------------------------------------

def load_records(dataset):
    """Accepts a DatasetManifest or a list of ImageRecord; returns (records, class_names)."""
    if hasattr(dataset, "load_all"):
        return dataset.load_all(), list(dataset.classes)
    return list(dataset), list(scenegen.DEFAULT_CLASSES)


@dataclass(eq=False)
class EvalResult:
    map50: float
    per_class_ap: dict
    per_class_hf: dict
    kept: tuple = field(repr=False)  # image ids, then ``detector.kept_rows`` of all images

    @cached_property
    def dets_by_image(self) -> dict:
        """{image id: ``detector.to_detections`` of its kept rows}, built on first read."""
        ids, *rows = self.kept
        return dict(zip(ids, detector.to_detections(*rows)))

    def __eq__(self, other):  # the detections compare as Detection lists
        fields = ("map50", "per_class_ap", "per_class_hf", "dets_by_image")
        return isinstance(other, EvalResult) and all(getattr(self, f) == getattr(other, f) for f in fields)


def evaluate_records(model, records, class_names, *, batch_size: int = 16, settings=None,
                     threads: int = 1):
    """Run inference over records and score mAP50 + hierarchical F1 under each of
    ``settings``, a list of ``(levels, bg_weight, perturb_all_stages)``, in one pass over
    the batches; returns a list with one EvalResult per setting.  ``levels`` are the
    records' per-stride mask stacks (``detector.mask_levels``), or None for the records'
    own masks at the strides the setting reads.  ``settings=None`` is
    ``[(None, 1.0, False)]`` and returns its one EvalResult.

    Every setting's op list starts with the same Conv/Relu ops before its first mask
    reader, so a batch runs them once and ``threads`` settings at a time go on from there:
    bit for bit a walk per setting only because no op writes to its input.  The rows NMS
    keeps are scored as arrays (``metrics.score``).  A repeated image id, an image that
    is not ``image_size`` square or a class list of another length than the model's
    raises ConfigurationError before any record runs."""
    cfg = model.cfg
    if len(class_names) != cfg.num_classes:
        raise ConfigurationError(f"{len(class_names)} class names for a model of {cfg.num_classes} classes")
    detector.check_images(cfg, records)
    ids = [r.image_id for r in records]
    first = {}
    for i, img in enumerate(ids):
        if first.setdefault(img, i) != i:
            raise ConfigurationError(f"duplicate image id {img}: records {first[img]} and {i}")
    one = settings is None
    settings = [(None, 1.0, False)] if one else settings
    settings = [(lv, detector.build_ops(cfg, w, every)) for lv, w, every in settings]
    # one pyramid of the records' own masks at every stride a None-levels setting reads
    own = detector.mask_levels([r.fg_mask for r in records], *(ops for lv, ops in settings if lv is None))
    settings = [(own if lv is None else lv, ops) for lv, ops in settings]
    split = min(next((i for i, op in enumerate(ops) if op.mask_stride is not None), len(ops))
                for _, ops in settings)
    no_rows = (np.zeros(0, int), np.zeros(0, int), np.zeros(0), np.zeros(0, int), np.zeros((0, 4)))
    batches = [[no_rows] for _ in settings]  # per setting: ``detector.kept_rows`` of each batch
    for start in range(0, len(records), batch_size):
        chunk = records[start:start + batch_size]
        x = detector.images_to_tensor(np.stack([r.image for r in chunk]))
        x = detector.Pass(settings[0][1][:split], model).forward(x)

        def finish(k):
            lv, ops = settings[k]
            rows = lv and {s: m[start:start + batch_size] for s, m in lv.items()}
            raw = detector.Pass(ops[split:], model, rows).forward(x)
            batches[k].append(detector.kept_rows(detector.DetHeadOutput.from_raw(raw, cfg.num_classes), cfg))

        _map_ordered(finish, range(len(settings)), threads)
    truth = [(i, int(g.class_id), *g.box) for i, r in enumerate(records) for g in r.instances]
    truth = np.array(truth, dtype=np.float64).reshape(len(truth), 6)
    gts = (truth[:, 0].astype(int), truth[:, 1].astype(int), truth[:, 2:])
    hierarchy = metrics.hierarchy_for(class_names)

    def score(kept):
        counts, cls, scores, cell, box = (np.concatenate(c) for c in zip(*kept))
        img = np.repeat(np.arange(len(records)), counts)
        s = metrics.score((img, cls, scores, box), gts, num_classes=len(class_names),
                          class_names=class_names, hierarchy=hierarchy)
        m, per_class = s.map50
        return EvalResult(m, {class_names[c]: v for c, v in per_class.items()}, s.hf,
                          (ids, counts, cls, scores, cell, box))

    results = _map_ordered(score, batches, threads)
    return results[0] if one else results


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# interventions
# ---------------------------------------------------------------------------

def _report(model_id, dataset_id, intervention, labels, results, notes=None) -> ExperimentReport:
    """One row per (label, EvalResult)."""
    rows = [ReportRow(k, r.map50, r.per_class_ap, r.per_class_hf) for k, r in zip(labels, results)]
    return ExperimentReport(model_id, dataset_id, intervention, rows, notes or {})


def run_bg_activation_sweep(ckpt, dataset, sweep: SweepSpec | None = None,
                            perturb_all_stages: bool = False, threads: int = 1,
                            model_id: str = "model", dataset_id: str = "dataset") -> ExperimentReport:
    """Scale background activations at the pooling slot's input by each sweep
    weight and score the model; applies to every pooling variant."""
    sweep = sweep or SweepSpec()
    model = detector.model_from_checkpoint(ckpt)
    records, class_names = load_records(dataset)
    results = evaluate_records(model, records, class_names, threads=threads,
                               settings=[(None, w, perturb_all_stages) for w in sweep.weights])
    return _report(model_id, dataset_id, "bg_activation_sweep", sweep.weights, results)


def _swap_eval(ckpt, dataset, intervention: str, keys, swap, threads: int,
               model_id: str, dataset_id: str) -> ExperimentReport:
    """One row per key: the records as ``swap(records, key)`` re-composites them, scored
    with the originals' masks, whose levels every key shares."""
    model = detector.model_from_checkpoint(ckpt)
    records, class_names = load_records(dataset)
    levels = detector.mask_levels([r.fg_mask for r in records], detector.build_ops(model.cfg))

    def one(key):
        return evaluate_records(model, swap(records, key), class_names, settings=[(levels, 1.0, False)])[0]

    return _report(model_id, dataset_id, intervention, keys, _map_ordered(one, keys, threads),
                   {"bg_fit": "aspect-preserving scale + center crop"})


def run_random_bg_eval(ckpt, dataset, bg_pool, repetitions: int = 5, seed: int = 0, threads: int = 1,
                       model_id: str = "model", dataset_id: str = "dataset") -> ExperimentReport:
    """Re-composite every record onto a random pool background, per repetition."""
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    if not bg_pool:
        raise ConfigurationError("background pool is empty")
    return _swap_eval(ckpt, dataset, "random_bg", range(repetitions), lambda records, rep: [
        scenegen.composite_random_bg(r, bg_pool, seed ^ rep) for r in records],
        threads, model_id, dataset_id)


def fixed_bg_draw(pool_size: int, count: int, seed: int) -> list:
    """``count`` distinct pool indices, drawn for ``run_fixed_bg_eval`` and ``swap-bg``'s fixed mode."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 11)))
    return [int(i) for i in rng.choice(pool_size, size=count, replace=False)]


def run_fixed_bg_eval(ckpt, dataset, bg_pool, repetitions: int = 5, seed: int = 0, threads: int = 1,
                      model_id: str = "model", dataset_id: str = "dataset") -> ExperimentReport:
    """One shared background per repetition, sampled from the pool without replacement."""
    if not 1 <= repetitions <= len(bg_pool):
        raise ConfigurationError(f"repetitions must be between 1 and the pool size, got "
                                 f"{repetitions} repetitions for {len(bg_pool)} backgrounds")
    return _swap_eval(ckpt, dataset, "fixed_bg", fixed_bg_draw(len(bg_pool), repetitions, seed),
                      lambda records, i: scenegen.composite_fixed_bg(records, bg_pool[i]),
                      threads, model_id, dataset_id)


def run_boundary_ablation(ckpt, dataset, factors=DEFAULT_MORPH_FACTORS, threads: int = 1,
                          model_id: str = "model", dataset_id: str = "dataset") -> ExperimentReport:
    """Feed the mask-pooling model morphologically perturbed masks (ground truth
    unchanged) and score per factor; mask-variant checkpoints only."""
    factors = [float(f) for f in check_numbers(factors, "factors")]
    model = detector.model_from_checkpoint(ckpt)
    if model.cfg.pooling_variant != "mask":
        raise ConfigurationError("boundary ablation applies to the mask pooling variant only")
    records, class_names = load_records(dataset)
    masks, ops = [r.fg_mask for r in records], detector.build_ops(model.cfg)
    settings = [(None, 1.0, False)]
    for f in factors:
        perturbed = [maskpool.morph_perturb(m, "dilate" if f > 1 else "erode", f) for m in masks]
        settings.append((detector.mask_levels(perturbed, ops), 1.0, False))
    results = evaluate_records(model, records, class_names, settings=settings, threads=threads)
    return _report(model_id, dataset_id, "boundary_ablation", ["baseline", *factors], results)


# ---------------------------------------------------------------------------
# diff tables
# ---------------------------------------------------------------------------

def diff_report(hf_a: dict, hf_b: dict, label_a: str = "A", label_b: str = "B") -> dict:
    """Per-class hierarchical-F1 difference table (fg, A, B, Diff) of two per-class hF
    maps, each value a (hP, hR, hF) triple or a bare hF.

    Missing classes carry None (rendered as dashes); also counts how many
    classes improved out of the comparable pairs.  The labels key a row's two
    values, so they must differ from each other and from ``fg`` and ``diff``.
    """
    if label_a == label_b or {label_a, label_b} & {"fg", "diff"}:
        raise ConfigurationError(f"diff labels must be distinct and neither 'fg' nor 'diff', "
                                 f"got {label_a!r} and {label_b!r}")
    if hf_a and hf_b and not set(hf_a) & set(hf_b):
        warnings.warn("diff_report: class sets are disjoint, rendering dashes only")
    rows = []
    for cls in sorted(set(hf_a) | set(hf_b), key=str):
        a, b = _hf(hf_a.get(cls)), _hf(hf_b.get(cls))
        rows.append({"fg": cls, label_a: a, label_b: b, "diff": None if a is None or b is None else b - a})
    diffs = [r["diff"] for r in rows if r["diff"] is not None]
    return {"schema": 1, "label_a": label_a, "label_b": label_b,
            "rows": rows, "improved": sum(d > 0 for d in diffs), "pairs": len(diffs)}


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

    def __post_init__(self):
        # the bounds scenegen, detector.train and the runners apply, checked before any data is made
        seeds = check_numbers(self.seeds, "seeds", integer=True, minimum=0)
        if not seeds or len(set(seeds)) < len(seeds):  # a repeated seed would overwrite its own files
            raise ConfigurationError(f"seeds must list at least one seed, none twice, got {self.seeds!r}")
        for key, minimum in (("train_images", 1), ("val_images", 1), ("image_size", 1), ("iterations", 0),
                             ("batch_size", 1), ("bg_pool", 1), ("repetitions", 1)):
            check_number(getattr(self, key), key, integer=True, minimum=minimum)
        detector.ModelConfig(image_size=self.image_size)  # a multiple of the grid stride
        scenegen.check_size_range(self.image_size)
        if not (check_number(self.lr, "lr") > 0 and 0 <= check_number(self.bias, "bias") <= 1):
            raise ConfigurationError(f"lr must be positive and bias in [0, 1], got {self.lr!r}, {self.bias!r}")


def run_study(spec: StudySpec, out) -> tuple:
    """Train max- and mask-pooling detectors per seed on the biased dataset and
    score each in-domain, under random-BG swaps and the activation sweep, plus a
    boundary ablation of each mask model.  Writes the checkpoints, one JSON and
    CSV report per (intervention, variant, seed) and summary.json under ``out``.
    The in-domain scores are the sweep's w = 1 row.  Returns the summary and the
    wall seconds of every runner call, keyed like the report files
    (``sweep-mask-seed1``, ...) and logged as each runner ends; they enter no file,
    so the files stay deterministic."""
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
    seconds = {}

    def run(key, fn, *args, **kwargs):  # times runner fn under key; its report goes to key.json/.csv
        t = time.perf_counter()
        report = fn(*args, **kwargs)
        seconds[key] = time.perf_counter() - t
        log.info("%s: %.1f s", key, seconds[key])
        report.write_json(out / f"{key}.json")
        report.write_csv(out / f"{key}.csv")
        return report

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
            rb = run(f"random_bg-{model_id}", run_random_bg_eval, ckpt, val_records, bg_pool,
                     repetitions=spec.repetitions, seed=seed, **ids).aggregates["map50"]
            sweep = run(f"sweep-{model_id}", run_bg_activation_sweep, ckpt, val_records, **ids)
            base = sweep.in_domain  # w = 1 scales nothing: the in-domain evaluation, bit for bit
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
