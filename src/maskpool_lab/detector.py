"""Tiny anchor-free dense detector with one swappable pooling slot.

Fixed topology: stem conv (stride 2) -> pooling slot (3x3, stride 2) ->
three conv-relu stages (exactly one of them stride 2) -> 1x1 conv head.
``build_ops`` is its single definition: an ordered list of small op objects
(Conv, Relu, Pool, BgScale, BoxScale), each owning its forward, backward,
saved tensors and cost, which training, inference, the mask strides and
``count_params_flops`` all walk.  The head emits, per grid cell: an
objectness logit, class logits and four box distances (left, top, right,
bottom) in pixels from the cell center.  The pooling slot is max, avg or
mask pooling; it never carries parameters, so all variants share parameter
counts and can be trained from identical seeds for head-to-head comparison.
"""

from __future__ import annotations

import io
import json
import logging
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import maskpool, nn
from .errors import ConfigurationError, ParseError, TrainingDiverged, check_number
from .metrics import iou_matrix

log = logging.getLogger(__name__)

POOLING_VARIANTS = ("max", "avg", "mask")
POOL_PLACEMENTS = ("post_stem", "post_block1")

CHECKPOINT_MAGIC = b"MPLB"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    pooling_variant: str = "max"
    channels: tuple = (16, 32, 64, 64)  # stem + three stages
    image_size: int = 128
    grid_stride: int = 8
    num_classes: int = 3
    score_threshold: float = 0.01
    nms_iou: float = 0.5
    pool_placement: str = "post_stem"

    def __post_init__(self):
        if not isinstance(self.channels, (list, tuple)):
            raise ConfigurationError(f"channels must be a list of integers, got {self.channels!r}")
        for name, v in (("image_size", self.image_size), ("grid_stride", self.grid_stride),
                        ("num_classes", self.num_classes), *(("channels entry", c) for c in self.channels)):
            check_number(v, name, integer=True)  # a string or float would end in a TypeError further on
        self.channels = tuple(int(c) for c in self.channels)
        if self.pooling_variant not in POOLING_VARIANTS:
            raise ConfigurationError(f"pooling_variant must be one of {POOLING_VARIANTS}")
        if self.pool_placement not in POOL_PLACEMENTS:
            raise ConfigurationError(f"pool_placement must be one of {POOL_PLACEMENTS}")
        if len(self.channels) != 4:
            raise ConfigurationError("channels must list 4 widths (stem + 3 stages)")
        if self.image_size % self.grid_stride != 0:
            raise ConfigurationError("image_size must be divisible by grid_stride")
        # stem (2) * pooling slot (2) * one stride-2 stage = 8
        if self.grid_stride != 8:
            raise ConfigurationError("fixed topology produces grid_stride 8")
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        # a NaN threshold compares False everywhere: no detections and no error
        if not (isinstance(self.score_threshold, numbers.Real) and 0.0 <= self.score_threshold <= 1.0):
            raise ConfigurationError(f"score_threshold must be in [0, 1], got {self.score_threshold!r}")
        if not (isinstance(self.nms_iou, numbers.Real) and 0.0 < self.nms_iou <= 1.0):
            raise ConfigurationError(f"nms_iou must be in (0, 1], got {self.nms_iou!r}")

    @property
    def grid_size(self) -> int:
        return self.image_size // self.grid_stride

    @property
    def head_channels(self) -> int:
        return 1 + self.num_classes + 4

    def to_dict(self) -> dict:
        d = asdict(self)
        d["channels"] = list(self.channels)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class DetHeadOutput:
    objectness: np.ndarray    # (n, 1, g, g)
    class_logits: np.ndarray  # (n, C, g, g)
    box_reg: np.ndarray       # (n, 4, g, g)

    @classmethod
    def from_raw(cls, raw: np.ndarray, num_classes: int) -> "DetHeadOutput":
        return cls(objectness=raw[:, :1],
                   class_logits=raw[:, 1:1 + num_classes],
                   box_reg=raw[:, 1 + num_classes:])


@dataclass
class Detection:
    class_id: int
    score: float
    box: tuple
    cell: int = 0  # emitting grid cell, used as the deterministic tie-breaker


@dataclass
class Model:
    cfg: ModelConfig
    layers: dict  # name -> LayerParams

    def params(self):
        return [self.layers[name] for name in self.layer_order()]

    def layer_order(self):
        return ("stem", "stage1", "stage2", "stage3", "head")


@dataclass
class Checkpoint:
    config: ModelConfig
    tensors: dict  # "<layer>.weight" / "<layer>.bias" -> float32 array
    seed: int
    iterations: int


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

OBJECTNESS_PRIOR_LOGIT = -4.0  # positives are rare (~1% of cells)


def build_model(cfg: ModelConfig, seed: int) -> Model:
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0)))
    c0, c1, c2, c3 = cfg.channels
    layers = {
        "stem": nn.LayerParams.conv(3, c0, 3, rng),
        "stage1": nn.LayerParams.conv(c0, c1, 3, rng),
        "stage2": nn.LayerParams.conv(c1, c2, 3, rng),
        "stage3": nn.LayerParams.conv(c2, c3, 3, rng),
        "head": nn.LayerParams.conv(c3, cfg.head_channels, 1, rng),
    }
    # zero-init head: outputs start at the bias priors, and the early
    # (large, pixel-scale) box-regression gradients cannot shock the trunk
    layers["head"].weights[...] = 0.0
    layers["head"].bias[0] = OBJECTNESS_PRIOR_LOGIT
    return Model(cfg=cfg, layers=layers)


# ---------------------------------------------------------------------------
# the op list: the network's one definition
# ---------------------------------------------------------------------------

def bg_mode(bg_weight: float, perturb_all_stages: bool) -> str | None:
    """None at w == 1 (no bg ops: the baseline, bit for bit, without masks), else
    'slot' (scale the pooling slot's input) or 'all' (every stage's and the slot's output)."""
    if bg_weight == 1.0:
        return None
    return "all" if perturb_all_stages else "slot"


@dataclass
class Pass:
    """One walk over an op list: forward, then backward when training."""

    ops: list
    model: Model
    levels: dict | None = None  # feature stride -> (n, h, w) mask batch
    bg_weight: float = 1.0
    keep: bool = False          # each op keeps its input for the backward

    def __post_init__(self):
        missing = sorted(mask_strides(self.ops) - set(self.levels or ()))
        if missing:
            raise ConfigurationError(f"masks required: the network reads mask strides {missing}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        for op in self.ops:
            if self.keep:
                op.x = x
            x = op.forward(self, x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        """Accumulates parameter gradients; returns the gradient of the walk's
        input, or None when its first op skips it (the stem)."""
        for op in reversed(self.ops):
            grad = op.backward(self, grad)
        return grad


class Op:
    """No forward writes to its input: ``experiments.evaluate_records`` hands one
    activation to the ops of several settings, and a write would leak between them."""

    mask_stride = None  # feature stride of the mask level the op reads

    def cost(self, model: Model, c: int, size: int):
        """(params, multiply-adds, out channels, out size) for one image."""
        return 0, 0, c, size


@dataclass
class Conv(Op):
    name: str
    stride: int
    padding: int

    def forward(self, run: Pass, x):
        p = run.model.layers[self.name]
        if not run.keep:
            return nn.conv2d_forward(x, p, self.stride, self.padding)
        y, self.cols = nn.conv2d_forward(x, p, self.stride, self.padding, with_cols=True)
        return y

    def backward(self, run: Pass, grad):
        # the stem's input is the image: skip the gradient nobody reads.  The
        # columns are handed over, not kept, so they are freed as soon as the
        # weight gradient exists.
        return nn.conv2d_backward(self.x, run.model.layers[self.name], grad, self.stride,
                                  self.padding, input_grad=self.name != "stem",
                                  cols=vars(self).pop("cols"))

    def cost(self, model, c, size):
        oc, ic, k, _ = model.layers[self.name].weights.shape
        size = nn.out_size(size, k, self.stride, self.padding)
        return oc * ic * k * k + oc, size * size * oc * ic * k * k, oc, size


class Relu(Op):
    def forward(self, run: Pass, x):
        return nn.relu_forward(x)

    def backward(self, run: Pass, grad):
        return nn.relu_backward(self.x, grad)


@dataclass
class Pool(Op):
    """The pooling slot: 3x3, stride 2, padding 1; mask pooling reads masks at ``mask_stride``."""

    variant: str
    mask_stride: int | None = None

    def forward(self, run: Pass, x):
        if self.variant == "avg":
            return nn.avgpool2d_forward(x, 3, 2, 1)
        if self.variant == "max":
            y, saved = nn.maxpool2d_forward(x, 3, 2, 1)
        else:
            y, saved = maskpool.maskpool2d_forward(x, run.levels[self.mask_stride], 3, 2, 1)
        if run.keep:  # the argmax or MaskPoolRecord is the backward's; inference keeps nothing
            self.saved = saved
        return y

    def backward(self, run: Pass, grad):
        if self.variant == "max":
            return nn.maxpool2d_backward(self.x, self.saved, grad, 3, 2, 1)
        if self.variant == "avg":
            return nn.avgpool2d_backward(self.x, grad, 3, 2, 1)
        return maskpool.maskpool2d_backward(self.x, run.levels[self.mask_stride], grad, self.saved)

    def cost(self, model, c, size):
        # avg and mask pooling: one add per valid window pixel plus one
        # divide per window; max pooling: none
        counts = nn.window_counts(size, size, 3, 2, 1)
        macs = 0 if self.variant == "max" else (int(counts.sum()) + counts.size) * c
        return 0, macs, c, nn.out_size(size, 3, 2, 1)


@dataclass
class BgScale(Op):
    """Scales background activations by ``bg_weight``; inference only, so no backward."""

    mask_stride: int

    def forward(self, run: Pass, x):
        return maskpool.bg_scale(x, run.levels[self.mask_stride], run.bg_weight)


class BoxScale(Op):
    """Box channels carry pixel distances (~stride..4*stride); scaling them by the
    grid stride lets the head conv work at O(1) activations.  Linear: backward = forward."""

    def forward(self, run: Pass, x):
        x = x.copy()
        x[:, 1 + run.model.cfg.num_classes:] *= run.model.cfg.grid_stride
        return x

    backward = forward


def build_ops(cfg: ModelConfig, bg_mode: str | None = None) -> list:
    """The pooling slot sits after the stem or after stage1; the first stage
    after it has stride 2.  ``bg_mode`` (see ``bg_mode()``) adds BgScale ops."""
    convs_before_pool = 1 if cfg.pool_placement == "post_stem" else 2
    ops, stride = [], 1
    for i, name in enumerate(("stem", "stage1", "stage2", "stage3")):
        if i == convs_before_pool:
            if bg_mode == "slot":
                ops.append(BgScale(stride))
            ops.append(Pool(cfg.pooling_variant, stride if cfg.pooling_variant == "mask" else None))
            stride *= 2
            if bg_mode == "all":
                ops.append(BgScale(stride))
        step = 2 if i in (0, convs_before_pool) else 1
        stride *= step
        ops += [Conv(name, step, 1), Relu()]
        if bg_mode == "all":
            ops.append(BgScale(stride))
    return ops + [Conv("head", 1, 0), BoxScale()]


def mask_strides(ops) -> set:
    return {op.mask_stride for op in ops} - {None}


def mask_levels(cfg: ModelConfig, masks, bg_weight: float = 1.0,
                perturb_all_stages: bool = False) -> dict | None:
    """The per-stride mask stacks {stride: (n, h', w')} of the (h, w) ``masks`` at
    the strides the network reads under this perturbation; None when it reads none."""
    strides = mask_strides(build_ops(cfg, bg_mode(bg_weight, perturb_all_stages)))
    return maskpool.build_pyramid(masks, strides) if strides else None


def forward(model: Model, image_batch: np.ndarray, levels=None,
            bg_weight: float = 1.0, perturb_all_stages: bool = False) -> DetHeadOutput:
    """Inference forward pass.  ``levels`` are the batch's per-stride mask stacks
    (see ``mask_levels``), required iff the variant is 'mask' or bg_weight != 1."""
    ops = build_ops(model.cfg, bg_mode(bg_weight, perturb_all_stages))
    raw = Pass(ops, model, levels, bg_weight).forward(image_batch)
    return DetHeadOutput.from_raw(raw, model.cfg.num_classes)


def images_to_tensor(images: np.ndarray) -> np.ndarray:
    """(n, h, w, 3) uint8 -> (n, 3, h, w) float32 in [-0.5, 0.5]."""
    x = np.asarray(images, dtype=np.float32) / 255.0 - 0.5
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


# ---------------------------------------------------------------------------
# targets, loss
# ---------------------------------------------------------------------------

@dataclass
class Targets:
    objectness: np.ndarray  # (n, 1, g, g) float32
    class_ids: np.ndarray   # (n, g, g) int64
    boxes: np.ndarray       # (n, 4, g, g) float32: l, t, r, b distances
    positive: np.ndarray    # (n, g, g) bool


def assign_targets(batch_instances, grid: int, stride: int) -> Targets:
    """Center-cell assignment; collisions go to the smaller-area instance."""
    n = len(batch_instances)
    obj = np.zeros((n, 1, grid, grid), dtype=np.float32)
    cls = np.zeros((n, grid, grid), dtype=np.int64)
    box = np.zeros((n, 4, grid, grid), dtype=np.float32)
    pos = np.zeros((n, grid, grid), dtype=bool)
    area = np.full((n, grid, grid), np.inf)
    for i, instances in enumerate(batch_instances):
        for inst in instances:
            x0, y0, x1, y1 = (float(v) for v in inst.box)
            cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            col = min(int(cx // stride), grid - 1)
            row = min(int(cy // stride), grid - 1)
            a = (x1 - x0) * (y1 - y0)
            if a >= area[i, row, col]:
                continue
            area[i, row, col] = a
            ccx, ccy = (col + 0.5) * stride, (row + 0.5) * stride
            obj[i, 0, row, col] = 1.0
            cls[i, row, col] = int(inst.class_id)
            box[i, :, row, col] = (ccx - x0, ccy - y0, x1 - ccx, y1 - ccy)
            pos[i, row, col] = True
    return Targets(obj, cls, box, pos)


def compute_loss(head: DetHeadOutput, targets: Targets):
    """bce(objectness) + ce(class | positives) + smooth_l1(box | positives), unit weights.

    Returns (loss, grad wrt the raw head tensor)."""
    l_obj, g_obj = nn.loss_bce_logits(head.objectness, targets.objectness)
    l_cls, g_cls = nn.loss_softmax_ce(head.class_logits, targets.class_ids, targets.positive)
    l_box, g_box = nn.loss_smooth_l1(head.box_reg, targets.boxes, targets.positive, beta=1.0)
    grad = np.concatenate([g_obj, g_cls, g_box], axis=1)
    return l_obj + l_cls + l_box, grad


# ---------------------------------------------------------------------------
# decode + NMS
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x.astype(np.float64)))


def decode(head: DetHeadOutput, cfg: ModelConfig):
    """Per image: every (cell, class) with sigmoid(obj)*softmax(class) above the
    score threshold emits a box; degenerate (zero-extent) boxes are dropped.

    Detections come per image in (class, row, col) order, with plain Python
    int/float fields; a box with a NaN edge is not degenerate and is kept."""
    n, num_classes, g, _ = head.class_logits.shape
    stride = cfg.grid_stride
    obj = _sigmoid(head.objectness)[:, 0]
    z = head.class_logits.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    scores = obj[:, None] * probs  # (n, C, g, g)
    img, cls, row, col = np.nonzero(scores >= cfg.score_threshold)  # per image, C order
    score = scores[img, cls, row, col]
    l, t, r, b = np.maximum(head.box_reg[img, :, row, col], 0.0).T
    ccx, ccy = (col + 0.5) * stride, (row + 0.5) * stride
    size = float(cfg.image_size)
    box = np.stack([np.maximum(ccx - l, 0.0), np.maximum(ccy - t, 0.0),
                    np.minimum(ccx + r, size), np.minimum(ccy + b, size)], axis=1)
    keep = ~((box[:, 2] <= box[:, 0]) | (box[:, 3] <= box[:, 1]))
    fields = zip(cls[keep].tolist(), score[keep].tolist(), box[keep].tolist(),
                 (row * g + col)[keep].tolist())
    dets = [Detection(c, s, tuple(bx), cell) for c, s, bx, cell in fields]
    bounds = np.searchsorted(img[keep], np.arange(n + 1)).tolist()
    return [dets[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def nms(dets, iou_thresh: float):
    """Greedy per-class NMS by descending score; score ties broken by lower cell index.

    A candidate is dropped when ``iou_matrix(candidate, kept)`` is not below
    ``iou_thresh`` for some higher-ranked kept detection of its class.  Returns
    the caller's Detection objects by (-score, cell, class); exact ties keep
    their input order."""
    dets = list(dets)
    if len(dets) < 2:  # nothing to rank or suppress; most images of an untrained model
        return dets
    cls = np.array([d.class_id for d in dets], dtype=np.int64)
    score = np.array([d.score for d in dets], dtype=np.float64)
    cell = np.array([d.cell for d in dets], dtype=np.int64)
    order = np.lexsort((cell, -score, cls))  # stable: exact ties keep input order
    box = np.array([dets[i].box for i in order.tolist()], dtype=np.float64)
    c = cls[order]
    bounds = [0, *(np.flatnonzero(c[1:] != c[:-1]) + 1).tolist(), len(dets)]
    keep = np.ones(len(dets), dtype=bool)
    for lo, hi in zip(bounds, bounds[1:]):  # one class per block, best first
        # suppressed[i, j]: candidate i falls to the higher-ranked j if j is kept
        suppressed = ~(iou_matrix(box[lo:hi], box[lo:hi]) < iou_thresh)
        block = keep[lo:hi]
        for j in range(hi - lo):
            if block[j]:
                block[j + 1:] &= ~suppressed[j + 1:, j]
    kept = order[keep]
    kept = kept[np.lexsort((cls[kept], cell[kept], -score[kept]))]
    return [dets[i] for i in kept.tolist()]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _first_bad_layer(model: Model) -> str:
    for name in model.layer_order():
        p = model.layers[name]
        for arr in (p.weights, p.bias, p.grad_weights, p.grad_bias):
            if not np.isfinite(arr).all():
                return name
    return "loss"


def train(dataset, model_cfg: ModelConfig, opt_cfg: nn.OptimizerConfig,
          iterations: int, batch_size: int = 8, seed: int = 0,
          log_every: int = 50) -> Checkpoint:
    """Deterministic SGD training; ``dataset`` is a DatasetManifest or a list
    of ImageRecord.  Returns a checkpoint after ``iterations`` steps."""
    check_number(iterations, "iterations", integer=True, minimum=0)
    check_number(batch_size, "batch_size", integer=True, minimum=1)
    records = dataset.load_all() if hasattr(dataset, "load_all") else list(dataset)
    if not records:
        raise ConfigurationError("training dataset is empty")
    images = np.stack([r.image for r in records])
    instances = [r.instances for r in records]
    ops = build_ops(model_cfg)
    levels = mask_levels(model_cfg, [r.fg_mask for r in records])

    model = build_model(model_cfg, seed)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 1)))
    grid = model_cfg.grid_size
    batch_size = min(int(batch_size), len(records))
    order = np.empty(0, dtype=np.int64)
    cursor = 0
    for it in range(int(iterations)):
        if cursor + batch_size > order.size:
            order = rng.permutation(len(records))
            cursor = 0
        idx = order[cursor:cursor + batch_size]
        cursor += batch_size
        x = images_to_tensor(images[idx])
        step = Pass(ops, model, levels and {s: lv[idx] for s, lv in levels.items()}, keep=True)
        raw = step.forward(x)
        head = DetHeadOutput.from_raw(raw, model_cfg.num_classes)
        targets = assign_targets([instances[i] for i in idx], grid, model_cfg.grid_stride)
        loss, grad_raw = compute_loss(head, targets)
        if not np.isfinite(loss):
            raise TrainingDiverged(it, _first_bad_layer(model))
        step.backward(grad_raw)
        nn.sgd_step(model.params(), opt_cfg)
        if log_every and (it % log_every == 0 or it + 1 == iterations):
            log.info("iter %d/%d loss %.5f", it, iterations, loss)
    return checkpoint_from_model(model, seed=seed, iterations=int(iterations))


# ---------------------------------------------------------------------------
# compute accounting
# ---------------------------------------------------------------------------

def count_params_flops(model: Model, image_size: int | None = None):
    """Analytic parameter and multiply-add counts for a single image, summed
    over the op list (see ``Op.cost``)."""
    params = macs = 0
    c, size = 3, int(image_size or model.cfg.image_size)
    for op in build_ops(model.cfg):
        p, m, c, size = op.cost(model, c, size)
        params += p
        macs += m
    return params, macs


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------

def checkpoint_from_model(model: Model, seed: int, iterations: int) -> Checkpoint:
    tensors = {}
    for name in model.layer_order():
        p = model.layers[name]
        tensors[f"{name}.weight"] = p.weights.copy()
        tensors[f"{name}.bias"] = p.bias.copy()
    return Checkpoint(config=model.cfg, tensors=tensors, seed=int(seed),
                      iterations=int(iterations))


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    model = build_model(ckpt.config, seed=ckpt.seed)
    expected = {f"{name}.{kind}" for name in model.layer_order() for kind in ("weight", "bias")}
    missing, extra = sorted(expected - set(ckpt.tensors)), sorted(set(ckpt.tensors) - expected)
    if missing or extra:
        raise ConfigurationError(f"checkpoint tensors missing: {missing}, unknown: {extra}")
    for name in model.layer_order():
        p = model.layers[name]
        w = ckpt.tensors[f"{name}.weight"]
        b = ckpt.tensors[f"{name}.bias"]
        if w.shape != p.weights.shape or b.reshape(-1).shape != p.bias.shape:
            raise ConfigurationError(f"checkpoint tensor {name} has wrong shape")
        p.weights[...] = w
        p.bias[...] = b.reshape(-1)
    return model


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    meta = {"model": ckpt.config.to_dict(), "seed": ckpt.seed, "iterations": ckpt.iterations}
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    buf.write(struct.pack("<I", len(ckpt.tensors)))
    for name in sorted(ckpt.tensors):
        arr = np.ascontiguousarray(ckpt.tensors[name], dtype=np.float32)
        shape4 = arr.shape + (1,) * (4 - arr.ndim)
        if arr.ndim > 4:
            raise ConfigurationError(f"tensor {name} has more than 4 dims")
        nb = name.encode()
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<4I", *shape4))
        buf.write(arr.astype("<f4").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint.  Truncation, a length running past the end, trailing
    bytes and a non-finite weight raise ParseError(path, offset)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ConfigurationError(f"{path}: bad checkpoint magic {data[:4]!r}")
    pos = 4

    def take(n, what):
        nonlocal pos
        if n > len(data) - pos:
            raise ParseError(path, pos, f"{what} needs {n} bytes, {len(data) - pos} left")
        pos += n
        return data[pos - n:pos]

    def u32(what):
        return struct.unpack("<I", take(4, what))[0]

    version = u32("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(f"{path}: unsupported checkpoint version {version}")
    blob = take(u32("header length"), "header")
    try:
        meta = json.loads(blob)
        cfg = ModelConfig.from_dict(meta["model"])
        seed, iterations = int(meta["seed"]), int(meta["iterations"])
    except ConfigurationError as e:  # a well-formed header holding a bad model config
        raise ConfigurationError(f"{path}: {e}") from None
    except (ValueError, KeyError, TypeError) as e:  # JSON, UTF-8, missing or mistyped fields
        raise ParseError(path, pos - len(blob), f"bad header: {e}") from e
    tensors = {}
    for _ in range(u32("tensor count")):
        name_at = pos
        try:
            name = take(u32("tensor name length"), "tensor name").decode()
        except UnicodeDecodeError as e:
            raise ParseError(path, name_at, f"tensor name is not UTF-8: {e}") from e
        shape = struct.unpack("<4I", take(16, f"tensor {name} shape"))
        if not all(shape):  # numpy cannot shape an empty tensor whose other dims are huge
            raise ParseError(path, pos - 16, f"tensor {name} has a zero dimension {shape}")
        data_at = pos
        arr = np.frombuffer(take(4 * math.prod(shape), f"tensor {name} data"), dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ParseError(path, data_at + 4 * int(bad[0]),
                             f"tensor {name} holds a non-finite value ({arr[bad[0]]})")
        arr = arr.reshape(shape)
        if name.endswith(".bias"):  # stored 4-d per the format; logical shape is 1-d
            arr = arr.reshape(-1)
        tensors[name] = np.ascontiguousarray(arr, dtype=np.float32)
    if pos != len(data):
        raise ParseError(path, pos, f"{len(data) - pos} trailing bytes after the last tensor")
    return Checkpoint(config=cfg, tensors=tensors, seed=seed, iterations=iterations)
