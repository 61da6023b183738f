"""Dense-tensor layer library: explicit forward/backward for every op the detector uses.

Tensors are plain ``numpy.ndarray`` with dtype float32 and layout (batch,
channel, height, width).  There is no autodiff graph; each layer pairs a
forward function with a hand-written backward, and ``grad_check`` compares
the two against central finite differences.

Conventions:
  - convolution uses zero padding;
  - pooling ops exclude padded positions from counts, averages and maxima;
  - reductions (means, losses) accumulate in float64 before casting back.

Convolution lowers its windows to im2col columns for one matmul.  A training
forward returns those columns (``with_cols``) and the backward forms the
weight gradient from them (``cols``) instead of rebuilding them.  Pooling has
no weights to multiply, so it reads the kernel*kernel windows as strided
views of the padded input (``_windows``) and never copies them.  Window sums
(avg and mask pooling, forward and backward, and the conv input gradient)
accumulate window pixel by window pixel in row-major window order, starting
from +0.0.  That order fixes every rounding, so it keeps checkpoints and
reports byte-identical and must not change; tests/pool_reference.py and
tests/conv_reference.py hold the former kernels it must match.  A stride-1
conv folds its input gradient through contiguous slices instead of strided
views (``_fold_stride1``), with the same float32 bits.
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


def _windows(xp: Array, kernel: int, stride: int, oh: int, ow: int) -> list:
    """The kernel*kernel strided views of padded input xp, in row-major window
    order: view i*kernel + j is the (n, c, oh, ow) grid of window pixels (i, j)."""
    return [xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            for i in range(kernel) for j in range(kernel)]


def _im2col(xp: Array, kernel: int, stride: int, oh: int, ow: int) -> Array:
    """(n, c, H, W) padded input -> (n, c, kernel*kernel, oh*ow) window columns."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kernel * kernel, oh, ow), dtype=xp.dtype)
    for k, view in enumerate(_windows(xp, kernel, stride, oh, ow)):
        cols[:, :, k] = view
    return cols.reshape(n, c, kernel * kernel, oh * ow)


def _crop(xp: Array, padding: int) -> Array:
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


def _col2im(cols: Array, shape, kernel: int, stride: int, padding: int, oh: int, ow: int) -> Array:
    """Fold (n, c, kernel*kernel, oh*ow) columns back, accumulating overlaps."""
    n, c, h, w = shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, c, kernel * kernel, oh, ow)
    for k, view in enumerate(_windows(xp, kernel, stride, oh, ow)):
        view += cols[:, :, k]
    return _crop(xp, padding)


def _pad(x: Array, padding: int, value: float = 0.0) -> Array:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                  constant_values=value)


def _valid_windows(h: int, w: int, kernel: int, stride: int, padding: int) -> list:
    """Per window pixel, the (1, 1, oh, ow) 0/1 map of windows where it lies inside the image."""
    oh = out_size(h, kernel, stride, padding)
    ow = out_size(w, kernel, stride, padding)
    ones = np.ones((1, 1, h, w), dtype=FLOAT)
    return _windows(_pad(ones, padding), kernel, stride, oh, ow)


def window_counts(h: int, w: int, kernel: int, stride: int, padding: int) -> Array:
    """(oh, ow) number of valid (non-padded) pixels in each window."""
    return sum(_valid_windows(h, w, kernel, stride, padding))[0, 0]


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_cols(x: Array, kernel: int, stride: int, padding: int, oh: int, ow: int) -> Array:
    """(n, c*kernel*kernel, oh*ow) im2col columns of the padded input."""
    n, c = x.shape[:2]
    return _im2col(_pad(x, padding), kernel, stride, oh, ow).reshape(n, c * kernel * kernel, oh * ow)


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
    cols = _conv_cols(x, kh, stride, padding, oh, ow)
    wmat = p.weights.reshape(oc, ic * kh * kw).astype(x.dtype)
    y = np.matmul(wmat, cols) + p.bias.reshape(1, oc, 1).astype(x.dtype)
    y = y.reshape(n, oc, oh, ow)
    return (y, cols) if with_cols else y


def _fold_stride1(wt: Array, grad_out: Array, shape, kernel: int, padding: int) -> Array:
    """Input gradient of a stride-1 conv: what ``_col2im`` makes of
    ``wt @ grad_out``, folded through contiguous slices instead of strided views.

    ``grad_out`` is widened from ow to the padded width wp with zero columns,
    so output (r, col) of window pixel (i, j) lands at flat offset
    r*wp + col + (i*wp + j) of the padded buffer: one contiguous ``+=`` per
    window pixel, in row-major window order.  The zero columns add
    ``wt @ 0`` = +-0 (wt must be finite), which changes no sum: sums start
    from +0.0, so none is ever -0.0.

    The bits also rely on the matmul computing each output column the same
    way whatever the number of columns.  OpenBLAS's sgemm does, so float32
    results are unchanged; its dgemm computes the last columns of a large
    product with another kernel, so float64 results (gradient checks only)
    can differ from ``_col2im``'s in the last bits."""
    n, c, h, w = shape
    _, oc, oh, ow = grad_out.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    g = grad_out
    if wp != ow:
        g = np.zeros((n, oc, oh, wp), dtype=grad_out.dtype)
        g[..., :ow] = grad_out
    span = oh * wp
    gcols = np.matmul(wt, g.reshape(n, oc, span)).reshape(n, c, kernel * kernel, span)
    # the last window pixel's slice runs kernel - 1 entries past the buffer
    xp = np.zeros((n, c, hp * wp + kernel - 1), dtype=gcols.dtype)
    for k in range(kernel * kernel):
        i, j = divmod(k, kernel)
        xp[:, :, i * wp + j:i * wp + j + span] += gcols[:, :, k]
    return _crop(xp[:, :, :hp * wp].reshape(n, c, hp, wp), padding)


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
    oh, ow = out_size(h, kh, stride, padding), out_size(w, kw, stride, padding)
    if grad_out.shape != (n, oc, oh, ow):
        raise ConfigurationError(f"grad_out shape {grad_out.shape} != expected {(n, oc, oh, ow)}")
    if cols is None:
        cols = _conv_cols(x, kh, stride, padding, oh, ow)
    g = grad_out.reshape(n, oc, oh * ow)
    # per-sample matmul then ordered sum over the batch keeps reductions fixed
    p.grad_weights += np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(p.weights.shape).astype(FLOAT)
    del cols  # free before the input gradient allocates its own columns
    p.grad_bias += g.sum(axis=(0, 2)).astype(FLOAT)
    if not input_grad:
        return None
    wt = p.weights.reshape(oc, -1).T.astype(x.dtype)
    # a non-finite weight would turn the widened zero columns into NaN, and
    # numpy multiplies by a single column (oh*ow == 1) with gemv, not gemm
    if stride == 1 and oh * ow > 1 and np.isfinite(wt).all():
        return _fold_stride1(wt, grad_out, x.shape, kh, padding)
    gcols = np.matmul(wt, g)
    return _col2im(gcols.reshape(n, ic, kh * kw, oh * ow), x.shape, kh, stride, padding, oh, ow)


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

def _flat_index(argmax: Array, padded_shape, kernel: int, stride: int) -> Array:
    """Flat index into the padded (n, c, H, W) buffer of each window's argmax pixel."""
    n, c, hp, wp = padded_shape
    oh, ow = argmax.shape[2:]
    di, dj = np.divmod(np.arange(kernel * kernel), kernel)
    origin = (np.arange(oh)[:, None] * wp + np.arange(ow)) * stride
    plane = np.arange(n * c).reshape(n, c, 1, 1) * (hp * wp)
    return plane + origin + (di * wp + dj)[argmax]


def maxpool2d_forward(x: Array, kernel: int, stride: int, padding: int = 0):
    """Returns (pooled, argmax) where argmax is the (n, c, oh*ow) in-window index
    (row-major) of the selected pixel: the first occurrence of the maximum, or
    the first NaN when the window holds one, as ``np.argmax`` picks it."""
    x = as_nchw(x)
    n, c, h, w = x.shape
    _check_geometry(h, w, kernel, stride, padding, pooling=True)
    oh, ow = out_size(h, kernel, stride, padding), out_size(w, kernel, stride, padding)
    xp = _pad(x, padding, value=-np.inf)
    views = _windows(xp, kernel, stride, oh, ow)
    top = views[0].copy()
    for v in views[1:]:
        np.maximum(top, v, out=top)  # propagates NaN
    # argmax counts the window pixels before the first one equal to the
    # maximum (or NaN, when the maximum is NaN)
    nan = np.isnan(top).any()
    argmax = np.zeros(top.shape, dtype=np.intp)
    before = np.ones(top.shape, dtype=bool)
    for v in views[:-1]:
        before &= v != top
        if nan:
            before &= v == v
        argmax += before
    # read the value back at argmax: the maximum's bits, signed zero and NaN included
    y = np.take(xp, _flat_index(argmax, xp.shape, kernel, stride))
    return y, argmax.reshape(n, c, oh * ow)


def maxpool2d_backward(x: Array, argmax: Array, grad_out: Array,
                       kernel: int, stride: int, padding: int = 0) -> Array:
    x = as_nchw(x)
    grad_out = as_nchw(grad_out)
    n, c, h, w = x.shape
    oh, ow = out_size(h, kernel, stride, padding), out_size(w, kernel, stride, padding)
    if grad_out.shape != (n, c, oh, ow):
        raise ConfigurationError(f"grad_out shape {grad_out.shape} != expected {(n, c, oh, ow)}")
    gp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    flat = _flat_index(argmax.reshape(n, c, oh, ow), gp.shape, kernel, stride)
    # np.add.at applies its updates one at a time, in order.  Of the windows
    # that select one pixel, a later window pixel means an earlier output, so
    # walking the outputs backwards adds in row-major window order.
    np.add.at(gp.reshape(-1), flat.reshape(-1)[::-1],
              grad_out.astype(x.dtype, copy=False).reshape(-1)[::-1])
    return _crop(gp, padding)


def avgpool2d_forward(x: Array, kernel: int, stride: int, padding: int = 0) -> Array:
    """Mean over the valid (non-padded) pixels of each window."""
    x = as_nchw(x)
    n, c, h, w = x.shape
    _check_geometry(h, w, kernel, stride, padding, pooling=True)
    oh, ow = out_size(h, kernel, stride, padding), out_size(w, kernel, stride, padding)
    total = np.zeros((n, c, oh, ow))
    for v in _windows(_pad(x, padding), kernel, stride, oh, ow):
        total += v
    return (total / window_counts(h, w, kernel, stride, padding)).astype(x.dtype)


def avgpool2d_backward(x: Array, grad_out: Array, kernel: int, stride: int, padding: int = 0) -> Array:
    x = as_nchw(x)
    grad_out = as_nchw(grad_out)
    n, c, h, w = x.shape
    oh, ow = out_size(h, kernel, stride, padding), out_size(w, kernel, stride, padding)
    if grad_out.shape != (n, c, oh, ow):
        raise ConfigurationError(f"grad_out shape {grad_out.shape} != expected {(n, c, oh, ow)}")
    share = (grad_out / window_counts(h, w, kernel, stride, padding)).astype(x.dtype, copy=False)
    gp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    # shares of padded window pixels land in the border that _crop drops
    for view in _windows(gp, kernel, stride, oh, ow):
        view += share
    return _crop(gp, padding)


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
    """SGD with momentum and weight decay; zeroes gradients afterwards.

    v <- momentum * v + grad + weight_decay * w ;  w <- w - lr * v
    """
    if isinstance(params, LayerParams):
        params = [params]
    lr, mom, wd = FLOAT(cfg.learning_rate), FLOAT(cfg.momentum), FLOAT(cfg.weight_decay)
    for p in params:
        for w, g, v in ((p.weights, p.grad_weights, p.vel_weights),
                        (p.bias, p.grad_bias, p.vel_bias)):
            v *= mom
            v += g + wd * w
            w -= lr * v
        p.zero_grad()


# ---------------------------------------------------------------------------
# finite-difference gradient checker
# ---------------------------------------------------------------------------

def grad_check(forward, backward, x: Array, *, epsilon: float = 1e-3,
               grad_out: Array | None = None, exclude: Array | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic backward and central differences.

    ``forward(x)`` maps an array to an array; ``backward(x, grad_out)`` must
    return d(sum(forward(x) * grad_out))/dx.  The op is driven at float64 (all
    ops follow their input dtype) so the epsilon-sized differences are not
    drowned by float32 output quantization; the relative-error denominator is
    max(|analytic|, |numeric|, 1e-8).  Entries flagged in ``exclude`` (same
    shape as x) are skipped.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(forward(x))
    if grad_out is None:
        rng = rng or np.random.default_rng(0)
        grad_out = rng.standard_normal(y.shape)
    grad_out64 = np.asarray(grad_out, dtype=np.float64)
    analytic = np.asarray(backward(x, grad_out64), dtype=np.float64).reshape(-1)
    skip = np.zeros(x.size, dtype=bool) if exclude is None else np.asarray(exclude).astype(bool).reshape(-1)
    flat = x.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        if skip[i]:
            continue
        orig = flat[i]
        xp = x.copy()
        xp.reshape(-1)[i] = orig + epsilon
        xm = x.copy()
        xm.reshape(-1)[i] = orig - epsilon
        step = float(xp.reshape(-1)[i]) - float(xm.reshape(-1)[i])
        if step == 0.0:
            continue
        fp = float((np.asarray(forward(xp), dtype=np.float64) * grad_out64).sum())
        fm = float((np.asarray(forward(xm), dtype=np.float64) * grad_out64).sum())
        numeric = (fp - fm) / step
        a = float(analytic[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
