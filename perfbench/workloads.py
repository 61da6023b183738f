"""The benchmark's three workloads, driven through the library's public entry points.

  train -- ``detector.train`` for max, avg and mask pooling, each round
           followed by the in-domain ``experiments.evaluate_records`` pass
           the study makes after training.
  sweep -- ``experiments.run_bg_activation_sweep`` (10 weights) for the max
           and mask reference checkpoints, read from disk each round with
           ``scenegen.load_dataset`` + ``detector.load_checkpoint`` as the
           ``perturb`` command does.
  swap  -- ``run_random_bg_eval`` and ``run_fixed_bg_eval`` (5 repetitions)
           for max and mask plus ``run_boundary_ablation`` (4 factors) for
           mask, all in memory as the study script does.

Each workload is single-process and closed-loop: the next call starts when
the previous one returned, runner ``threads=1``.  Inputs come from the
workload seed; reference checkpoints come from fixed seeds so their bytes
can be compared with committed sha256 digests (``reference_digests.json``).
Every metric is reported on every workload: where the timed window of a
workload runs no SGD step, the step samples come from the canary training
in its set-up.  See README.md for the reasoning.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from maskpool_lab import detector, experiments, maskpool, metrics, nn, scenegen

from spans import Hook, Tracer

WORKLOADS = ("train", "sweep", "swap")
VARIANTS = ("max", "avg", "mask")
CLASSES = scenegen.DEFAULT_CLASSES
TEXTURES = scenegen.DEFAULT_TEXTURES
IMAGE_SIZE = 128
BATCH_SIZE = 8
BIAS = 0.85  # the study's default class -> texture concentration

# fixed seeds of the reference data, as in scripts/run_bias_study.py
REF_TRAIN_SEED, REF_VAL_SEED, REF_POOL_SEED = 1000, 2000, 3000
REF_MODEL_SEED = 0
VAL_SEED_OFFSET = 100_000  # workload val set seed = workload seed + offset

CALIBRATION_SLICES = 3  # before and after each timed eval call and input generation

DIGESTS_PATH = Path(__file__).resolve().parent / "reference_digests.json"


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  The defaults are the benchmark; tests shrink them."""

    # reference checkpoints for sweep and swap: 300 steps is the fewest at
    # which the mask model emits detections at all (150 steps: none)
    ref_train_images: int = 200
    ref_steps: int = 300
    # canaries: every set-up trains all three variants from a fixed seed;
    # in sweep and swap they are also the source of the step samples, so
    # there they repeat, interleaving the variants across the set-up
    canary_train_images: int = 32
    canary_steps: int = 21
    canary_repeats: int = 5
    train_canary_steps: int = 20
    canary_val_images: int = 16
    train_images: int = 200
    train_val_images: int = 96
    val_images: int = 32
    bg_pool: int = 16
    round_steps: int = 35
    input_repeats: int = 3
    min_rounds: int = 2
    min_detections: int = 1


# ---------------------------------------------------------------------------
# bookkeeping: operations, artifact digests, step clock
# ---------------------------------------------------------------------------

class Ops:
    """Counts library calls the benchmark makes; a failed correctness check
    counts as a failed call.  The ``generate_dataset`` probe is kept apart so
    the top-level counts describe the workload's own operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.probe = None  # (attempted, failed, detail)

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            self.failed += 1
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            raise

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: check failed {detail}".rstrip())

    def ok_frac(self) -> float:
        attempted, failed = self.attempted, self.failed
        if self.probe:
            attempted += self.probe[0]
            failed += self.probe[1]
        return (attempted - failed) / attempted


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Digests:
    """Artifact bytes against committed reference digests (fixed-seed
    artifacts) or against the first round of this run (seeded artifacts)."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.first = {}
        self.match = {}  # artifact name -> bool

    def committed(self, name: str, data: bytes) -> None:
        self.first[name] = sha256(data)
        self.match[name] = self.reference.get(name) == self.first[name]

    def repeat(self, name: str, data: bytes) -> bool:
        digest = sha256(data)
        if name not in self.first:
            self.first[name] = digest
            return True
        same = digest == self.first[name]
        self.match[name] = self.match.get(name, True) and same
        return same

    def match_frac(self) -> float:
        return sum(self.match.values()) / len(self.match)

    def mismatches(self) -> list:
        return sorted(name for name, ok in self.match.items() if not ok)


class Calibration:
    """Machine-speed probe: a fixed pure-numpy kernel at the detector's shapes
    (a stage-3 matmul, a strided im2col-style copy, a relu-style pass), timed
    between units of work and never touching the library.

    On a shared host the CPU's speed drifts by a third within minutes and the
    kernel slows with it: over eight runs the raw step p50 spanned 44-57 ms
    while step / kernel time spanned 11.4-12.0.  Every reported time is
    therefore scaled to the kernel's nominal time, ``NOMINAL_S``; raw values
    are printed beside the scaled ones.
    """

    NOMINAL_S = 0.004  # about the kernel's median on an idle 2-vCPU Xeon VM

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((8, 64, 576), dtype=np.float32)
        self.b = rng.standard_normal((8, 576, 256), dtype=np.float32)
        self.x = rng.standard_normal((8, 16, 66, 66), dtype=np.float32)
        self.cols = np.empty((8, 16, 9, 32, 32), dtype=np.float32)
        self.samples = {}  # phase -> [seconds]
        self.spent = 0.0

    def measure(self, phases=(), repeats: int = 1) -> list:
        taken = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            np.matmul(self.a, self.b)
            for i in range(3):
                for j in range(3):
                    self.cols[:, :, 3 * i + j] = self.x[:, :, i:i + 64:2, j:j + 64:2]
            np.maximum(self.x, 0.0).sum()
            dt = time.perf_counter() - t0
            self.spent += dt
            taken.append(dt)
            for phase in phases:
                self.samples.setdefault(phase, []).append(dt)
        return taken

    def timed(self, fn, phase: str, slices: int):
        """Run ``fn()`` between two groups of calibration slices.  Returns
        (result, wall seconds, seconds scaled by the bracketing slices)."""
        before = self.measure((phase,), slices)
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        after = self.measure((phase,), slices)
        return result, seconds, seconds * self.NOMINAL_S / statistics.median(before + after)

    def scale(self, phase: str) -> float:
        """Nominal / measured kernel time: multiply a duration by it."""
        return self.NOMINAL_S / statistics.median(self.samples[phase])


class StepClock(logging.Handler):
    """Per-step wall time from the ``log_every=1`` records ``detector.train``
    emits after each SGD step.  Step 0 also covers train()'s data preparation
    and is not a sample.  A calibration slice follows every step, outside the
    sample; ``samples[variant]`` holds (step seconds, slice seconds) pairs."""

    def __init__(self, calibration: Calibration):
        super().__init__(logging.INFO)
        self.calibration = calibration
        self.phases = ()
        self.samples = {v: [] for v in VARIANTS}
        self.variant = None
        self.losses = []
        self.last = 0.0

    def start(self, variant: str) -> None:
        self.variant = variant
        self.losses = []
        self.last = time.perf_counter()

    def emit(self, record):
        now = time.perf_counter()
        it, _total, loss = record.args
        self.losses.append(loss)
        (slice_s,) = self.calibration.measure(self.phases)
        if it > 0:
            self.samples[self.variant].append((now - self.last, slice_s))
        self.last = time.perf_counter()

    def __enter__(self):
        self.logger = logging.getLogger(detector.__name__)
        self.saved = (self.logger.level, self.logger.propagate)
        self.logger.setLevel(logging.INFO)
        self.logger.propagate = False
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)
        self.logger.setLevel(self.saved[0])
        self.logger.propagate = self.saved[1]
        return False


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def bias_spec() -> scenegen.BiasSpec:
    return scenegen.BiasSpec.concentrated(len(CLASSES), len(TEXTURES), BIAS)


def make_records(n: int, seed: int) -> list:
    """The records ``generate_dataset`` would return, built with the per-record
    generator it loops over (its own loop passes a stray argument)."""
    bias = bias_spec()
    return [scenegen._generate_record(i, IMAGE_SIZE, CLASSES, TEXTURES, bias, (1, 4), (16, 44), seed)
            for i in range(n)]


def records_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r.image_id.encode())
        h.update(r.image.tobytes())
        h.update(r.fg_mask.tobytes())
        h.update(repr([(i.class_id, i.box, i.texture_id) for i in r.instances]).encode())
    return h.hexdigest()


def probe_generate_dataset(ops: Ops, seed: int) -> None:
    """One call of the public generator; its outcome enters ``ops_ok_frac``."""
    try:
        got = scenegen.generate_dataset(2, IMAGE_SIZE, bias=bias_spec(), seed=seed)
    except Exception as e:
        ops.probe = (1, 1, f"scenegen.generate_dataset: {type(e).__name__}: {e}")
        return
    same = records_digest(got) == records_digest(make_records(2, seed))
    ops.probe = (1, 0 if same else 1,
                 "scenegen.generate_dataset: ok" if same
                 else "scenegen.generate_dataset: records differ from the per-record generator")


@dataclass
class Inputs:
    digest: str                 # of everything the workload seed determines
    train: list = None
    val: list = None
    val_dir: Path = None
    pool: list = None
    canary_val: list = None
    canary_pool: list = None


def build_inputs(workload: str, seed: int, scale: Scale, workdir: Path) -> Inputs:
    if workload == "train":
        train = make_records(scale.train_images, seed)
        val = make_records(scale.train_val_images, seed + VAL_SEED_OFFSET)
        return Inputs(records_digest(train + val), train=train, val=val)
    val = make_records(scale.val_images, seed + VAL_SEED_OFFSET)
    inputs = Inputs(records_digest(val), val=val,
                    canary_val=make_records(scale.canary_val_images, REF_VAL_SEED),
                    canary_pool=scenegen.generate_bg_pool(scale.bg_pool, IMAGE_SIZE, REF_POOL_SEED))
    if workload == "sweep":
        inputs.val_dir = workdir / "val"
        scenegen.save_dataset(val, CLASSES, inputs.val_dir, seed=seed, bias=bias_spec().matrix.tolist())
    else:
        inputs.pool = scenegen.generate_bg_pool(scale.bg_pool, IMAGE_SIZE, seed)
        inputs.digest = sha256((inputs.digest + "".join(sha256(b.tobytes()) for b in inputs.pool)).encode())
    return inputs


# ---------------------------------------------------------------------------
# reference checkpoints: a build product, cached per source tree
# ---------------------------------------------------------------------------

def source_key(scale: Scale) -> str:
    """Digest of everything the reference checkpoints depend on."""
    h = hashlib.sha256()
    package = Path(detector.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")) + [Path(__file__).resolve()]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    h.update(repr((np.__version__, scale.ref_train_images, scale.ref_steps)).encode())
    return h.hexdigest()[:16]


def reference_paths(scale: Scale, build_dir: Path, ops: Ops) -> tuple:
    """Paths of the max and mask reference checkpoints, training them on a
    cache miss.  Returns (paths, seconds spent training, 0 on a hit)."""
    directory = build_dir / source_key(scale)
    paths = {v: directory / f"ref-{v}.mplb" for v in ("max", "mask")}
    if all(p.is_file() for p in paths.values()):
        return paths, 0.0
    t0 = time.perf_counter()
    directory.mkdir(parents=True, exist_ok=True)
    records = make_records(scale.ref_train_images, REF_TRAIN_SEED)
    for v, path in paths.items():
        ckpt = ops.call("detector.train", detector.train, records,
                        detector.ModelConfig(pooling_variant=v), nn.OptimizerConfig(),
                        scale.ref_steps, BATCH_SIZE, REF_MODEL_SEED, log_every=0)
        tmp = path.with_suffix(".tmp")
        ops.call("detector.save_checkpoint", detector.save_checkpoint, ckpt, tmp)
        tmp.replace(path)
    return paths, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class Run:
    workload: str
    seed: int
    scale: Scale
    workdir: Path
    build_dir: Path
    ops: Ops = field(default_factory=Ops)
    digests: Digests = None
    calibration: Calibration = field(default_factory=Calibration)
    clock: StepClock = None
    inputs: Inputs = None
    refs: dict = field(default_factory=dict)        # variant -> Checkpoint
    ref_paths: dict = field(default_factory=dict)   # variant -> Path
    eval_images: int = 0
    eval_s: float = 0.0
    eval_scaled_s: float = 0.0
    rounds: int = 0
    gen_s: list = field(default_factory=list)
    gen_scaled_s: list = field(default_factory=list)
    ref_s: float = 0.0
    build_s: float = 0.0

    def __post_init__(self):
        self.clock = StepClock(self.calibration)

    # -- helpers -----------------------------------------------------------

    def checkpoint_bytes(self, ckpt, name: str) -> bytes:
        path = self.workdir / f"{name}.mplb"
        self.ops.call("detector.save_checkpoint", detector.save_checkpoint, ckpt, path)
        return path.read_bytes()

    def report_bytes(self, report, name: str) -> bytes:
        path = self.workdir / f"{name}.json"
        self.ops.call("ExperimentReport.write_json", report.write_json, path)
        return path.read_bytes()

    def check_report(self, name: str, report, rows: int) -> None:
        values = [r.map50 for r in report.rows]
        ok = len(values) == rows and all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values)
        self.ops.check(name, ok, f"(rows {len(values)}, expected {rows}; map50 {values})")

    def train(self, records, variant: str, steps: int, seed: int):
        self.clock.start(variant)
        ckpt = self.ops.call("detector.train", detector.train, records,
                             detector.ModelConfig(pooling_variant=variant), nn.OptimizerConfig(),
                             steps, BATCH_SIZE, seed, log_every=1)
        losses = list(self.clock.losses)
        self.ops.check(f"train.{variant}.losses", len(losses) == steps and
                       all(math.isfinite(v) for v in losses), f"({len(losses)} of {steps} finite)")
        return ckpt, repr(losses).encode()

    def timed_eval(self, fn, images):
        """Run ``fn()`` on the eval clock and count ``images(result)`` images."""
        result, seconds, scaled = self.calibration.timed(fn, "eval", CALIBRATION_SLICES)
        self.eval_s += seconds
        self.eval_scaled_s += scaled
        self.eval_images += images(result)
        return result

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """The fixed-seed canaries, the inputs (generated ``input_repeats``
        times, which must agree) and, for sweep and swap, the reference
        checkpoints.  The canaries come first so that no file the inputs
        write is still being flushed while their steps are timed."""
        probe_generate_dataset(self.ops, self.seed)
        if self.workload != "train":
            self.ref_paths, self.build_s = reference_paths(self.scale, self.build_dir, self.ops)
        t0, spent0 = time.perf_counter(), self.calibration.spent
        self.train_canaries()
        self.ref_s = time.perf_counter() - t0 - (self.calibration.spent - spent0)
        digests = set()
        for _ in range(self.scale.input_repeats):
            self.inputs, seconds, scaled = self.calibration.timed(lambda: self.ops.call(
                "build_inputs", build_inputs, self.workload, self.seed, self.scale, self.workdir),
                "inputs", CALIBRATION_SLICES)
            self.gen_s.append(seconds)
            self.gen_scaled_s.append(scaled)
            digests.add(self.inputs.digest)
        self.ops.check("inputs.repeat", len(digests) == 1, "(same seed gave different inputs)")
        if self.workload != "train":
            t0 = time.perf_counter()
            self.load_references()
            self.ref_s += time.perf_counter() - t0

    def train_canaries(self) -> None:
        records = make_records(self.scale.canary_train_images, REF_TRAIN_SEED)
        self.clock.phases = ("setup",)
        if self.workload == "train":
            steps, repeats = self.scale.train_canary_steps, 1
        else:
            steps, repeats = self.scale.canary_steps, self.scale.canary_repeats
        for r in range(repeats):
            for v in VARIANTS:
                ckpt, _ = self.train(records, v, steps, REF_MODEL_SEED)
                name = f"canary.ckpt.{v}.{steps}"
                data = self.checkpoint_bytes(ckpt, f"canary-{v}")
                if r == 0:
                    self.digests.committed(name, data)
                else:
                    self.repeat(name, data)
        self.clock.phases = ()
        if self.workload == "train":
            # the train window times its own steps
            self.clock.samples = {v: [] for v in VARIANTS}

    def load_references(self) -> None:
        for v, path in self.ref_paths.items():
            self.digests.committed(f"ref.ckpt.{v}", path.read_bytes())
            self.refs[v] = self.ops.call("detector.load_checkpoint", detector.load_checkpoint, path)
        canary = self.inputs.canary_val
        for v in ("max", "mask"):
            model = detector.model_from_checkpoint(self.refs[v])
            res = self.ops.call("experiments.evaluate_records", experiments.evaluate_records,
                                model, canary, list(CLASSES))
            detections = sum(len(d) for d in res.dets_by_image.values())
            self.ops.check(f"ref.{v}.detections", detections >= self.scale.min_detections,
                           f"({detections} on {len(canary)} canary images)")
            if self.workload == "sweep":
                rep = self.ops.call("experiments.run_bg_activation_sweep",
                                    experiments.run_bg_activation_sweep, self.refs[v], canary,
                                    experiments.SweepSpec((0.5, 1.0)), threads=1)
                self.check_report(f"canary.sweep.{v}", rep, 2)
                self.digests.committed(f"canary.sweep.{v}", self.report_bytes(rep, f"canary-sweep-{v}"))
            else:
                rep = self.ops.call("experiments.run_random_bg_eval", experiments.run_random_bg_eval,
                                    self.refs[v], canary, self.inputs.canary_pool, 1, REF_POOL_SEED,
                                    threads=1)
                self.check_report(f"canary.random_bg.{v}", rep, 1)
                self.digests.committed(f"canary.random_bg.{v}",
                                       self.report_bytes(rep, f"canary-random-bg-{v}"))
        if self.workload == "swap":
            rep = self.ops.call("experiments.run_boundary_ablation", experiments.run_boundary_ablation,
                                self.refs["mask"], canary, (1.2,), threads=1)
            self.check_report("canary.ablation.mask", rep, 2)
            self.digests.committed("canary.ablation.mask", self.report_bytes(rep, "canary-ablation-mask"))

    # -- rounds --------------------------------------------------------------

    def round(self) -> None:
        {"train": self.train_round, "sweep": self.sweep_round, "swap": self.swap_round}[self.workload]()
        self.rounds += 1

    def repeat(self, name: str, data: bytes) -> None:
        self.ops.check(f"{name}.repeat", self.digests.repeat(name, data),
                       "(bytes differ from the first round)")

    def train_round(self) -> None:
        val = self.inputs.val
        for v in VARIANTS:
            ckpt, losses = self.train(self.inputs.train, v, self.scale.round_steps, self.seed)
            self.repeat(f"train.ckpt.{v}", self.checkpoint_bytes(ckpt, f"train-{v}"))
            self.repeat(f"train.losses.{v}", losses)
            model = detector.model_from_checkpoint(ckpt)
            res = self.timed_eval(lambda: self.ops.call(
                "experiments.evaluate_records", experiments.evaluate_records, model, val, list(CLASSES)),
                lambda _: len(val))
            self.ops.check(f"train.{v}.eval", math.isfinite(res.map50) and 0.0 <= res.map50 <= 100.0,
                           f"(map50 {res.map50})")

    def sweep_round(self) -> None:
        n = len(self.inputs.val)

        def sweep(v):
            dataset = self.ops.call("scenegen.load_dataset", scenegen.load_dataset, self.inputs.val_dir)
            ckpt = self.ops.call("detector.load_checkpoint", detector.load_checkpoint, self.ref_paths[v])
            return self.ops.call("experiments.run_bg_activation_sweep",
                                 experiments.run_bg_activation_sweep, ckpt, dataset, threads=1,
                                 model_id=f"ref-{v}", dataset_id="val")

        for v in ("max", "mask"):
            rep = self.timed_eval(lambda: sweep(v), lambda r: n * len(r.rows))
            self.check_report(f"sweep.{v}", rep, len(experiments.DEFAULT_SWEEP_WEIGHTS))
            self.repeat(f"sweep.report.{v}", self.report_bytes(rep, f"sweep-{v}"))

    def swap_round(self) -> None:
        val, pool, n = self.inputs.val, self.inputs.pool, len(self.inputs.val)
        for v in ("max", "mask"):
            for name, runner in (("random_bg", experiments.run_random_bg_eval),
                                 ("fixed_bg", experiments.run_fixed_bg_eval)):
                rep = self.timed_eval(lambda: self.ops.call(
                    f"experiments.run_{name}_eval", runner, self.refs[v], val, pool, 5, self.seed,
                    threads=1, model_id=f"ref-{v}", dataset_id="val"), lambda r: n * len(r.rows))
                self.check_report(f"{name}.{v}", rep, 5)
                self.repeat(f"{name}.report.{v}", self.report_bytes(rep, f"{name}-{v}"))
        rep = self.timed_eval(lambda: self.ops.call(
            "experiments.run_boundary_ablation", experiments.run_boundary_ablation, self.refs["mask"],
            val, threads=1, model_id="ref-mask", dataset_id="val"), lambda r: n * len(r.rows))
        self.check_report("ablation.mask", rep, 1 + len(experiments.DEFAULT_MORPH_FACTORS))
        self.repeat("ablation.report.mask", self.report_bytes(rep, "ablation-mask"))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
    ("digest_match_frac", "frac"),
    ("step_ms_p50.max", "ms"),
    ("step_ms_p90.max", "ms"),
    ("step_ms_p50.mask", "ms"),
    ("step_ms_p90.mask", "ms"),
    ("step_ms_p50.avg", "ms"),
    ("eval_img_per_s", "img/s"),
)

TRACE_TARGETS = (
    (nn, ("conv2d_forward", "conv2d_backward", "relu_forward", "relu_backward",
          "maxpool2d_forward", "maxpool2d_backward", "avgpool2d_forward", "avgpool2d_backward",
          "loss_bce_logits", "loss_softmax_ce", "loss_smooth_l1", "sgd_step")),
    (maskpool, ("maskpool2d_forward", "maskpool2d_backward", "bg_scale", "build_pyramid",
                "morph_perturb")),
    (detector, ("forward", "images_to_tensor", "assign_targets", "compute_loss", "decode", "nms",
                "load_checkpoint")),
    (metrics, ("map50", "hierarchical_f1")),
    (scenegen, ("composite_with_bg", "read_ppm", "read_mask_pgm")),
    (experiments, ("evaluate_records",)),
)

CONV_SITES = ("stem", "stage1", "stage2", "stage3", "head")


def conv_site_by_shape() -> dict:
    """Weight shape -> layer name at the default model configuration."""
    model = detector.build_model(detector.ModelConfig(), seed=0)
    return {tuple(model.layers[n].weights.shape): n for n in model.layer_order()}


def _conv_args(args, kwargs):
    x = kwargs.get("x", args[0] if args else None)
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    return x, p


def make_tracer() -> Tracer:
    sites = conv_site_by_shape()

    def site(args, kwargs):
        _, p = _conv_args(args, kwargs)
        return sites.get(tuple(p.weights.shape), "other")

    def conv_gmac(args, kwargs, _result):
        # computed from shapes, not measured
        x, p = _conv_args(args, kwargs)
        stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
        padding = kwargs.get("padding", args[3] if len(args) > 3 else 0)
        oc, ic, k, _ = p.weights.shape
        n, _, h, w = x.shape
        oh, ow = nn.out_size(h, k, stride, padding), nn.out_size(w, k, stride, padding)
        return {"nn.conv2d_forward.gmac": n * oc * oh * ow * ic * k * k / 1e9}

    hooks = {
        "nn.conv2d_forward": Hook(site=site, count=conv_gmac),
        "nn.conv2d_backward": Hook(site=site),
        "detector.decode": Hook(count=lambda a, k, r: {
            "detector.decode.candidates": sum(len(d) for d in r)}),
        "detector.nms": Hook(count=lambda a, k, r: {"detector.nms.kept": len(r)}),
    }
    return Tracer(list(TRACE_TARGETS), hooks)


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for module, fns in TRACE_TARGETS:
        for fn in fns:
            q = Tracer.qualname(module, fn)
            out += [(f"{q}.calls", "count", "lower"), (f"{q}.self_s", "s", "lower")]
    for op in ("conv2d_forward", "conv2d_backward"):
        out += [(f"nn.{op}.{site}.self_s", "s", "lower") for site in CONV_SITES]
    out += [("detector.decode.candidates", "count", "lower"),
            ("detector.nms.kept", "count", "lower"),
            ("detector.nms.kept_frac", "frac", "higher"),
            ("nn.conv2d_forward.gmac", "GMAC-computed", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.overhead_frac", "frac", "lower")]
    return out


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def step_seconds(pairs, scaled: bool, window: int = 5) -> list:
    """Step times, each scaled by the median of the calibration slices taken
    within ``window`` steps of it (about half a second either side)."""
    if not scaled:
        return [step for step, _ in pairs]
    slices = [c for _, c in pairs]
    return [step * Calibration.NOMINAL_S
            / statistics.median(slices[max(0, i - window):i + window + 1])
            for i, (step, _) in enumerate(pairs)]


def end_to_end_values(run: Run, scaled: bool = True) -> dict:
    """Metric values; times scaled to the calibration kernel's nominal speed
    unless ``scaled`` is false."""
    samples = run.clock.samples

    def k(phase):
        return run.calibration.scale(phase) if scaled else 1.0

    values = {
        "setup_s": (statistics.median(run.gen_scaled_s if scaled else run.gen_s)
                    + run.ref_s * k("setup")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": run.ops.ok_frac(),
        "digest_match_frac": run.digests.match_frac(),
        "eval_img_per_s": run.eval_images / (run.eval_scaled_s if scaled else run.eval_s),
    }
    steps = {v: step_seconds(samples[v], scaled) for v in VARIANTS}
    for v in ("max", "mask", "avg"):
        values[f"step_ms_p50.{v}"] = 1e3 * statistics.median(steps[v])
    for v in ("max", "mask"):
        values[f"step_ms_p90.{v}"] = 1e3 * percentile(steps[v], 90)
    return values


def per_layer_values(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics over the traced rounds; ``traced_s`` and
    ``untraced_s`` are mean round times."""
    values = {}
    for name, (calls, self_s) in tracer.totals().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for op in ("nn.conv2d_forward", "nn.conv2d_backward"):
        for site, s in tracer.site_self_s(op, CONV_SITES).items():
            values[f"{op}.{site}.self_s"] = s
    c = tracer.counters
    candidates, kept = c["detector.decode.candidates"], c["detector.nms.kept"]
    values["detector.decode.candidates"] = int(candidates)
    values["detector.nms.kept"] = int(kept)
    values["detector.nms.kept_frac"] = kept / candidates if candidates else 0.0
    values["nn.conv2d_forward.gmac"] = c["nn.conv2d_forward.gmac"]
    values["trace.wall_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return values


def execute(workload: str, seed: int, seconds: float, trace: bool, scale: Scale,
            out_dir: Path, build_dir: Path, reference: dict | None = None) -> tuple:
    """Set up, measure and check one run.  Returns (run, metric values, tracer or None)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    workdir = out_dir / f"work-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if reference is None:
        reference = json.loads(DIGESTS_PATH.read_text())
    run = Run(workload, seed, scale, workdir, build_dir, digests=Digests(reference))
    tracer = None
    try:
        with run.clock:
            run.setup()
            if not trace:
                deadline = time.perf_counter() + seconds
                while run.rounds < scale.min_rounds or time.perf_counter() < deadline:
                    run.round()
                values = end_to_end_values(run)
            else:
                # a warm-up round, then untraced and traced rounds in ABBA
                # order, so that neither warm-up nor a linear drift of the
                # machine's speed lands on one side of the overhead
                run.round()
                tracer = make_tracer()
                round_s = {False: 0.0, True: 0.0}
                for traced in (False, True, True, False):
                    t0 = time.perf_counter()
                    if traced:
                        with tracer:
                            run.round()
                    else:
                        run.round()
                    round_s[traced] += (time.perf_counter() - t0) / 2
                values = per_layer_values(tracer, round_s[True], round_s[False])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run, values, tracer
