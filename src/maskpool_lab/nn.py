"""Dense-tensor layer library: explicit forward/backward for every op the detector uses.

Tensors are plain ``numpy.ndarray`` with dtype float32 and layout (batch,
channel, height, width).  There is no autodiff graph; each layer pairs a
forward function with a hand-written backward (tests/grad_check.py compares
the two against central finite differences).

Conventions:
  - convolution uses zero padding;
  - pooling ops exclude padded positions from counts, averages and maxima;
  - reductions (means, losses) accumulate in float64 before casting back.

Convolution writes im2col columns straight from the unpadded activation (a
1x1 stride-1 conv uses the input itself) and multiplies them one block of
samples (COL_BLOCK_BYTES) at a time, while the block is still in cache; an
inference forward reuses one block buffer, a training forward fills the full
columns it hands to the backward (``with_cols``).  The GEMMs are per sample
either way, so blocking changes no bit.  Pooling reads its input as
stride-phase planes (``_Phases``, which also checks a window op's geometry and
counts each window's valid pixels), where each window pixel is one contiguous
run; the avg and mask pooling backwards and every conv's input-gradient fold
add those runs into gradient planes.  Every sum runs in row-major window
order from +0.0.  That order fixes every rounding, so it keeps checkpoints
and reports byte-identical and must not change; the padded kernels in
tests/pool_reference.py and tests/conv_reference.py pin it.

A float32 conv weight gradient is the per-sample product cols @ g^T, the
faster orientation, summed over the batch and transposed.  Its sum is kept
only when finite: then both operands were finite, and OpenBLAS's sgemm gives
bitwise the g @ cols^T product of the references.  A non-finite sum, where
the NaN payload can depend on the orientation, and float64, where dgemm rounds
the orientations differently at more than one BLAS thread, use g @ cols^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

Array = np.ndarray

FLOAT = np.float32


def as_nchw(x: Array) -> Array:
    """Validate and return a contiguous (n, c, h, w) tensor.

    float32 is the production dtype; float64 passes through unchanged so the
    gradient checker can drive the same code paths at full precision.
    """
    dtype = np.float64 if np.asarray(x).dtype == np.float64 else FLOAT
    x = np.ascontiguousarray(x, dtype=dtype)
    if x.ndim != 4:
        raise ConfigurationError(f"expected 4-d (n,c,h,w) tensor, got shape {x.shape}")
    return x


@dataclass
class LayerParams:
    """One conv layer's parameters plus gradient and momentum buffers."""

    weights: Array  # (out_c, in_c, k, k)
    bias: Array     # (out_c,)
    grad_weights: Array = field(init=False)
    grad_bias: Array = field(init=False)
    vel_weights: Array = field(init=False)
    vel_bias: Array = field(init=False)

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=FLOAT)
        self.bias = np.ascontiguousarray(self.bias, dtype=FLOAT)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self.vel_weights = np.zeros_like(self.weights)
        self.vel_bias = np.zeros_like(self.bias)

    @classmethod
    def conv(cls, in_c: int, out_c: int, kernel: int, rng: np.random.Generator) -> "LayerParams":
        """He-style init: normal with std sqrt(2 / fan_in), zero bias."""
        fan_in = in_c * kernel * kernel
        w = rng.standard_normal((out_c, in_c, kernel, kernel)) * np.sqrt(2.0 / fan_in)
        return cls(weights=w.astype(FLOAT), bias=np.zeros(out_c, dtype=FLOAT))

    def zero_grad(self):
        self.grad_weights[...] = 0.0
        self.grad_bias[...] = 0.0


@dataclass
class OptimizerConfig:
    # lr 0.05 reliably kills the trunk's relus under the pixel-scale box
    # gradients; 0.01 trains all three pooling variants stably
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {self.weight_decay}")


# ---------------------------------------------------------------------------
# window geometry
# ---------------------------------------------------------------------------

def out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _check_geometry(h: int, w: int, kernel: int, stride: int, padding: int, pooling: bool):
    if stride < 1 or padding < 0 or kernel < 1:
        raise ConfigurationError(f"bad window geometry kernel={kernel} stride={stride} padding={padding}")
    if h + 2 * padding < kernel or w + 2 * padding < kernel:
        raise ConfigurationError(f"kernel {kernel} does not fit input {h}x{w} with padding {padding}")
    # padding >= kernel would create windows made of padding only
    if pooling and padding >= kernel:
        raise ConfigurationError(f"pooling window of zero valid pixels: padding {padding} >= kernel {kernel}")


def _taps(h: int, w: int, kernel: int, stride: int, padding: int, oh: int, ow: int) -> list:
    """Per window pixel, in row-major window order, (out, inp) indices: the part of the (oh, ow)
    output grid where the pixel lies inside the (h, w) input, and the input pixels it reads there."""
    def spans(size, n_out):
        for i in range(kernel):
            lo = min(n_out, max(0, -((i - padding) // stride)))  # first window inside
            hi = max(lo, min(n_out, (size - 1 - i + padding) // stride + 1))
            start = i - padding + stride * lo
            yield slice(lo, hi), slice(start, start + stride * (hi - lo), stride)
    return [((..., ro, co), (..., ri, ci)) for ro, ri in spans(h, oh) for co, ci in spans(w, ow)]


class _Phases:
    """Stride-phase planes (space-to-depth) of a window op's padded input.

    Plane (a, b) of a channel holds padded pixel (stride*r + a, stride*q + b) at (r, q)
    of a (rows, wq) grid, wq = ow + (kernel-1)//stride, so window pixel k of output
    (r, q) sits at flat offset starts[k] + r*wq + q: over the output grid widened to
    wq columns, each window pixel is one contiguous run, and callers crop the widened
    columns.  Phases that no window reads (stride > kernel) get no plane; at stride 1
    the one plane is the padded buffer.  ``tiles`` holds each plane's (grid, input)
    indices of its in-image part."""

    def __init__(self, h: int, w: int, kernel: int, stride: int, padding: int, pooling: bool = True):
        _check_geometry(h, w, kernel, stride, padding, pooling)
        self.stride, self.oh = stride, out_size(h, kernel, stride, padding)
        self.ow, d, m = out_size(w, kernel, stride, padding), (kernel - 1) // stride, min(kernel, stride)
        self.rows, self.wq = self.oh + d, self.ow + d
        self.span, self.size = self.oh * self.wq, self.rows * self.wq + d  # the last run ends d past the grid
        self.starts = np.array([((i % stride) * m + j % stride) * self.size + i // stride * self.wq
                                + j // stride for i in range(kernel) for j in range(kernel)])
        self.tiles = _taps(h, w, m, stride, padding, self.rows, self.wq)
        self.counts = np.zeros((self.oh, self.ow), dtype=FLOAT)  # valid (non-padded) pixels per window
        for out, _ in _taps(h, w, kernel, stride, padding, self.oh, self.ow):
            self.counts[out] += 1

    def _grids(self, planes: Array) -> Array:
        """The (n, c, rows, wq) grid of each plane of (n, c, planes*size) ``planes``."""
        n, c, p = planes.shape[:2] + (len(self.tiles),)
        cut = planes.reshape(n, c, p, self.size)[..., :self.rows * self.wq]
        return np.moveaxis(cut.reshape(n, c, p, self.rows, self.wq), 2, 0)

    def planes(self, x: Array, fill: float) -> Array:
        """(n, c, planes*size) phase planes of x, padded positions set to ``fill``."""
        planes = np.empty(x.shape[:2] + (len(self.tiles) * self.size,), dtype=x.dtype)
        for grid, (out, inp) in zip(self._grids(planes), self.tiles):
            rows, cols = out[1], out[2]
            grid[..., :rows.start, :] = grid[..., rows.stop:, :] = fill
            grid[..., rows, :cols.start] = grid[..., rows, cols.stop:] = fill
            grid[out] = x[inp]
        planes.reshape(x.shape[:2] + (-1, self.size))[..., self.rows * self.wq:] = fill
        return planes

    def runs(self, planes: Array) -> list:
        """Per window pixel, in row-major window order, its (n, c, oh*wq) run."""
        return [planes[:, :, s:s + self.span] for s in self.starts]

    def widen(self, a: Array, dtype) -> Array:
        """(n, c, oh*wq) copy of (n, c, oh, ow) ``a`` with +0.0 in the widened columns."""
        wide = np.zeros(a.shape[:2] + (self.oh, self.wq), dtype=dtype)
        wide[..., :self.ow] = a
        return wide.reshape(a.shape[:2] + (self.span,))

    def crop(self, a: Array) -> Array:
        """The (n, c, oh, ow) outputs of an (n, c, oh*wq) widened grid."""
        return a.reshape(a.shape[:2] + (self.oh, self.wq))[..., :self.ow]

    def fold(self, parts, shape, dtype) -> Array:
        """Input gradient of ``shape`` from each window pixel's (n, c, oh*wq) part, in row-major
        window order, added into gradient planes from +0.0 (so +-0.0 in a widened column changes
        no sum), whose in-image part is written back once."""
        gp = np.zeros(shape[:2] + (len(self.tiles) * self.size,), dtype=dtype)
        for s, part in zip(self.starts, parts):
            gp[:, :, s:s + self.span] += part
        if self.stride == 1:
            return self._grids(gp)[0][self.tiles[0][0]]
        gx = np.zeros(shape, dtype=dtype)  # pixels past the last window get no gradient
        for grid, (out, inp) in zip(self._grids(gp), self.tiles):
            gx[inp] = grid[out]
        return gx


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

# im2col bytes per forward block, at least one sample: a 16-image batch's columns
# (7.1 MB at the stem, 9.4 MB at stage3) overflow a 2 MiB L2; 1 MiB timed best of 4, 2, 1
COL_BLOCK_BYTES = 1 << 20


def _conv_cols(x: Array, kernel: int, stride: int, padding: int, oh: int, ow: int,
               dest: Array | None = None) -> Array:
    """(n, c*kernel*kernel, oh*ow) im2col columns of the unpadded input, written into
    ``dest`` (a block of the forward's buffer) when given: each window pixel's slab
    copies its in-image part and zeroes the windows where it lies in the padding, so
    every entry is written and a reused buffer keeps nothing of an earlier block."""
    n, c, h, w = x.shape
    if kernel == 1 and stride == 1 and padding == 0:
        return x.reshape(n, c, h * w)
    cols = np.empty((n, c * kernel * kernel, oh * ow), dtype=x.dtype) if dest is None else dest
    slabs = cols.reshape(n, c, kernel * kernel, oh, ow)
    for k, (out, inp) in enumerate(_taps(h, w, kernel, stride, padding, oh, ow)):
        slab, rows, cs = slabs[:, :, k], out[1], out[2]
        slab[..., :rows.start, :] = slab[..., rows.stop:, :] = 0
        slab[..., rows, :cs.start] = slab[..., rows, cs.stop:] = 0
        slab[out] = x[inp]
    return cols


def conv2d_forward(x: Array, p: LayerParams, stride: int = 1, padding: int = 0,
                   with_cols: bool = False):
    """Cross-correlation with zero padding.

    With ``with_cols`` returns (output, cols): the im2col columns, for
    conv2d_backward to reuse instead of rebuilding them."""
    x = as_nchw(x)
    oc, ic, kh, kw = p.weights.shape
    if kh != kw:
        raise ConfigurationError("only square kernels supported")
    n, c, h, w = x.shape
    if c != ic:
        raise ConfigurationError(f"conv expects {ic} input channels, got {c}")
    _check_geometry(h, w, kh, stride, padding, pooling=False)
    oh, ow = out_size(h, kh, stride, padding), out_size(w, kw, stride, padding)
    wmat = p.weights.reshape(oc, ic * kh * kw).astype(x.dtype, copy=False)
    y = np.empty((n, oc, oh * ow), dtype=x.dtype)
    if kh == 1 and stride == 1 and padding == 0:
        cols = _conv_cols(x, kh, stride, padding, oh, ow)
        np.matmul(wmat, cols, out=y)
    else:
        step = max(1, COL_BLOCK_BYTES // (ic * kh * kw * oh * ow * x.itemsize))
        cols = np.empty((n if with_cols else min(step, n), ic * kh * kw, oh * ow), dtype=x.dtype)
        for a in range(0, n, step):
            block = cols[a:a + step] if with_cols else cols[:min(step, n - a)]
            _conv_cols(x[a:a + step], kh, stride, padding, oh, ow, dest=block)
            np.matmul(wmat, block, out=y[a:a + step])
    y = y.reshape(n, oc, oh, ow)
    y += p.bias.reshape(1, oc, 1, 1).astype(x.dtype, copy=False)
    return (y, cols) if with_cols else y


def conv2d_backward(x: Array, p: LayerParams, grad_out: Array, stride: int = 1,
                    padding: int = 0, input_grad: bool = True, cols: Array | None = None) -> Array | None:
    """Gradients of conv2d_forward; accumulates into p.grad_weights / p.grad_bias.

    ``cols`` are the forward's im2col columns of x (built here when None).
    Returns the input gradient, or None when ``input_grad`` is False (for a
    first layer, whose input gradient nobody reads)."""
    x = as_nchw(x)
    grad_out = as_nchw(grad_out)
    oc, ic, kh, kw = p.weights.shape
    n, c, h, w = x.shape
    ph = _Phases(h, w, kh, stride, padding, pooling=False)
    if grad_out.shape != (n, oc, ph.oh, ph.ow):
        raise ConfigurationError(f"grad_out shape {grad_out.shape} != expected {(n, oc, ph.oh, ph.ow)}")
    if cols is None:
        cols = _conv_cols(x, kh, stride, padding, ph.oh, ph.ow)
    g = grad_out.reshape(n, oc, ph.oh * ph.ow)
    # Per-sample products summed over the batch in sample order.  float32 keeps the
    # faster (K, oc) cols @ g^T when its sum is finite: every entry of a sample's cols
    # meets every entry of its g in some product, so a NaN or +-inf in either operand
    # leaves a non-finite entry in the sum.  A non-finite sum and float64 take
    # g @ cols^T, the references' product (module docstring).
    gw = np.matmul(cols, g.transpose(0, 2, 1)).sum(axis=0).T if g.dtype == FLOAT else None
    if gw is None or not np.isfinite(gw).all():
        gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
    p.grad_weights += gw.reshape(p.weights.shape).astype(FLOAT)
    del cols, gw  # free before the input gradient allocates its own columns
    p.grad_bias += g.sum(axis=(0, 2)).astype(FLOAT)
    if not input_grad:
        return None
    wt = p.weights.reshape(oc, -1).T.astype(x.dtype)
    # The fold adds each window pixel's run of gradient columns over the output grid
    # widened to wq columns (``_Phases``).  Zero columns of grad_out add wt @ 0 = +-0,
    # which changes no sum that starts from +0.0; with a non-finite weight (NaN there)
    # or one column (gemv, not gemm) the product is widened with +0.0 instead.  OpenBLAS's
    # sgemm computes each column the same whatever the column count; its dgemm does not for
    # a large product's last columns, so float64 (checks only) may differ in the last bits.
    wide = ph.wq > ph.ow and ph.oh * ph.ow > 1 and np.isfinite(wt).all()
    gcols = np.matmul(wt, ph.widen(grad_out, grad_out.dtype) if wide else g)
    if ph.wq > ph.ow and not wide:
        gcols = ph.widen(gcols.reshape(n, -1, ph.oh, ph.ow), gcols.dtype)
    return ph.fold(np.moveaxis(gcols.reshape(n, ic, kh * kw, ph.span), 2, 0), x.shape, gcols.dtype)


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def relu_forward(x: Array) -> Array:
    return np.maximum(as_nchw(x), FLOAT(0.0))


def relu_backward(x: Array, grad_out: Array) -> Array:
    """grad_out where x > 0, else +0.0.

    A branch-free bit select (AND with an all-ones or all-zeros word), so the
    kept gradients pass through bit for bit, NaN and signed zeros included.
    """
    x = as_nchw(x)
    bits = np.dtype(f"u{x.itemsize}")
    keep = np.multiply(x > 0, np.iinfo(bits).max, dtype=bits)
    g = np.asarray(grad_out, dtype=x.dtype)
    return np.bitwise_and(g.view(bits), keep, out=keep).view(x.dtype)


# ---------------------------------------------------------------------------
# pooling (padded positions are never counted, averaged or selected)
# ---------------------------------------------------------------------------

def maxpool2d_forward(x: Array, kernel: int, stride: int, padding: int = 0):
    """Returns (pooled, argmax) where argmax is the (n, c, oh*ow) in-window index
    (row-major) of the selected pixel: the first occurrence of the maximum, or
    the first NaN when the window holds one, as ``np.argmax`` picks it."""
    x = as_nchw(x)
    n, c, h, w = x.shape
    ph = _Phases(h, w, kernel, stride, padding)
    planes = ph.planes(x, -np.inf)
    views = ph.runs(planes)
    top = views[0].copy()
    for v in views[1:]:
        np.maximum(top, v, out=top)  # propagates NaN
    # argmax counts the window pixels before the first one equal to the maximum (or NaN,
    # when that is NaN) in the narrowest integer type that fits: uint8 adds beat intp ones
    nan = np.isnan(top).any()
    argmax = np.zeros(top.shape, dtype=np.min_scalar_type(kernel * kernel - 1))
    before = np.ones(top.shape, dtype=bool)
    for v in views[:-1]:
        before &= v != top
        if nan:
            before &= v == v
        argmax += before
    argmax = ph.crop(argmax).astype(np.intp)
    # read the value back at argmax: the maximum's bits, signed zero and NaN included
    flat = np.take(ph.starts, argmax) + (np.arange(ph.oh)[:, None] * ph.wq + np.arange(ph.ow))
    y = np.take(planes, flat + np.arange(n * c).reshape(n, c, 1, 1) * planes.shape[2])
    return y, argmax.reshape(n, c, ph.oh * ph.ow)


def maxpool2d_backward(x: Array, argmax: Array, grad_out: Array,
                       kernel: int, stride: int, padding: int = 0) -> Array:
    x = as_nchw(x)
    grad_out = as_nchw(grad_out)
    n, c, h, w = x.shape
    oh, ow = out_size(h, kernel, stride, padding), out_size(w, kernel, stride, padding)
    if grad_out.shape != (n, c, oh, ow):
        raise ConfigurationError(f"grad_out shape {grad_out.shape} != expected {(n, c, oh, ow)}")
    wp = w + 2 * padding
    gp = np.zeros((n, c, h + 2 * padding, wp), dtype=x.dtype)
    # the flat index into gp of each window's argmax pixel
    window = (np.arange(kernel)[:, None] * wp + np.arange(kernel)).reshape(-1)
    flat = np.take(window, argmax.reshape(n, c, oh, ow))
    flat += (np.arange(oh)[:, None] * wp + np.arange(ow)) * stride
    flat += np.arange(n * c).reshape(n, c, 1, 1) * gp[0, 0].size
    # np.add.at applies its updates one at a time, in order.  Of the windows
    # that select one pixel, a later window pixel means an earlier output, so
    # walking the outputs backwards adds in row-major window order.
    np.add.at(gp.reshape(-1), flat.reshape(-1)[::-1],
              grad_out.astype(x.dtype, copy=False).reshape(-1)[::-1])
    return gp[:, :, padding:padding + h, padding:padding + w]


def avgpool2d_forward(x: Array, kernel: int, stride: int, padding: int = 0) -> Array:
    """Mean over the valid (non-padded) pixels of each window."""
    x = as_nchw(x)
    n, c, h, w = x.shape
    ph = _Phases(h, w, kernel, stride, padding)
    total = np.zeros((n, c, ph.span))
    for v in ph.runs(ph.planes(x, 0.0)):
        total += v
    return (ph.crop(total) / ph.counts).astype(x.dtype)


def avgpool2d_backward(x: Array, grad_out: Array, kernel: int, stride: int, padding: int = 0) -> Array:
    x = as_nchw(x)
    grad_out = as_nchw(grad_out)
    n, c, h, w = x.shape
    ph = _Phases(h, w, kernel, stride, padding)
    if grad_out.shape != (n, c, ph.oh, ph.ow):
        raise ConfigurationError(f"grad_out shape {grad_out.shape} != expected {(n, c, ph.oh, ph.ow)}")
    share = ph.widen(grad_out / ph.counts, x.dtype)
    return ph.fold([share] * kernel * kernel, x.shape, x.dtype)


# ---------------------------------------------------------------------------
# losses (each returns scalar loss and gradient wrt the first argument)
# ---------------------------------------------------------------------------

def loss_bce_logits(logits: Array, targets: Array):
    """Binary cross-entropy on logits, mean over every element."""
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if z.shape != t.shape:
        raise ConfigurationError(f"bce shapes differ: {z.shape} vs {t.shape}")
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    grad = (1.0 / (1.0 + np.exp(-z)) - t) / z.size
    return float(per.mean()), grad.astype(np.asarray(logits).dtype)


def loss_softmax_ce(logits: Array, class_targets: Array, valid_mask: Array):
    """Cross-entropy over (n, C, h, w) logits at cells where valid_mask is set.

    Mean over valid cells; zero valid cells yields loss 0 and zero gradient.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 4:
        raise ConfigurationError(f"expected (n,C,h,w) logits, got {z.shape}")
    tgt = np.asarray(class_targets)
    valid = np.asarray(valid_mask).astype(bool)
    if tgt.shape != valid.shape or tgt.shape != (z.shape[0],) + z.shape[2:]:
        raise ConfigurationError("class targets / valid mask must be (n,h,w) matching logits")
    out_dtype = np.asarray(logits).dtype
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, np.zeros_like(z, dtype=out_dtype)
    zmax = z.max(axis=1, keepdims=True)
    logsumexp = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    picked = np.take_along_axis(logp, np.clip(tgt, 0, z.shape[1] - 1)[:, None], axis=1)[:, 0]
    loss = -picked[valid].sum() / n_valid
    onehot = np.zeros_like(z)
    np.put_along_axis(onehot, np.clip(tgt, 0, z.shape[1] - 1)[:, None], 1.0, axis=1)
    grad = (np.exp(logp) - onehot) * valid[:, None] / n_valid
    return float(loss), grad.astype(out_dtype)


def loss_smooth_l1(pred: Array, target: Array, valid_mask: Array, beta: float = 1.0):
    """Huber-style loss on (n, C, h, w) predictions over cells where valid_mask is set."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ConfigurationError(f"smooth_l1 shapes differ: {p.shape} vs {t.shape}")
    valid = np.asarray(valid_mask).astype(bool)
    if valid.shape != (p.shape[0],) + p.shape[2:]:
        raise ConfigurationError("valid mask must be (n,h,w) matching predictions")
    out_dtype = np.asarray(pred).dtype
    n_entries = int(valid.sum()) * p.shape[1]
    if n_entries == 0:
        return 0.0, np.zeros_like(p, dtype=out_dtype)
    d = p - t
    ad = np.abs(d)
    per = np.where(ad < beta, 0.5 * d * d / beta, ad - 0.5 * beta)
    vm = valid[:, None]
    loss = (per * vm).sum() / n_entries
    grad = np.clip(d / beta, -1.0, 1.0) * vm / n_entries
    return float(loss), grad.astype(out_dtype)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def sgd_step(params, cfg: OptimizerConfig) -> None:
    """SGD with momentum and weight decay over a list of LayerParams; zeroes gradients afterwards.

    v <- momentum * v + grad + weight_decay * w ;  w <- w - lr * v
    """
    lr, mom, wd = FLOAT(cfg.learning_rate), FLOAT(cfg.momentum), FLOAT(cfg.weight_decay)
    for p in params:
        for w, g, v in ((p.weights, p.grad_weights, p.vel_weights),
                        (p.bias, p.grad_bias, p.vel_bias)):
            v *= mom
            v += g + wd * w
            w -= lr * v
        p.zero_grad()
