"""Boundary-aware mask pooling and the mask utilities around it.

The pooling rule, per window: count foreground pixels (n_F) and background
pixels (n_B) among the window's valid (non-padded) positions.  If
n_F >= n_B, emit the mean of the foreground pixel values; otherwise the
mean of the background pixel values.  The same FG-wins tie rule is reused
when downsampling masks by majority vote.

The mask is a constant input: the backward pass routes gradient only into
the pixels of the selected region and never differentiates the mask.

Like the pooling ops in ``nn``, the operator reads the input and mask as
stride-phase planes (``nn._Phases``), where each window pixel is one
contiguous run.  The forward sums every window plainly and sums again only
the windows that straddle the mask boundary, with the selection; the
backward adds each window pixel's run into gradient planes.  Window sums
accumulate in float64, pixel by pixel in row-major window order from +0.0;
that order fixes the rounding that keeps checkpoints and reports
byte-identical, so it must not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .nn import FLOAT, Array, _check_geometry, _Phases, as_nchw, window_counts


def _check_binary(m: Array):
    # what np.isin(m, (0, 1)) tests, at a tenth of its cost on a training batch's masks
    if not ((m == 0) | (m == 1)).all():
        raise ConfigurationError("non-binary mask: values other than 0/1 present")


def as_binary_mask(m: Array) -> Array:
    """Validate a (h, w) mask of {0, 1} values; returns uint8."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ConfigurationError(f"expected 2-d mask, got shape {m.shape}")
    _check_binary(m)
    return m.astype(np.uint8)


def _mask_batch(m: Array, n: int, h: int, w: int) -> Array:
    """Normalize a (h,w) or (n,h,w) mask to a float32 (n,h,w) batch."""
    m = np.asarray(m)
    if m.ndim == 2:
        m = m[None].repeat(n, axis=0)
    if m.shape != (n, h, w):
        raise ConfigurationError(f"mask shape {m.shape} does not match features ({n},{h},{w})")
    _check_binary(m)
    return m.astype(FLOAT)


# ---------------------------------------------------------------------------
# per-stride mask stacks
# ---------------------------------------------------------------------------

def downsample_mask(m: Array, factor: int) -> Array:
    """Majority-vote downsampling by ``factor`` (ties go to foreground).

    Each factor x factor block (edge blocks may be partial) becomes 1 iff its
    FG count is >= its BG count, matching the pooling branch rule.
    """
    m = as_binary_mask(m)
    if factor < 1:
        raise ConfigurationError(f"downsample factor must be >= 1, got {factor}")
    h, w = m.shape
    row_idx = np.arange(0, h, factor)
    col_idx = np.arange(0, w, factor)
    fg = np.add.reduceat(np.add.reduceat(m.astype(np.int64), row_idx, axis=0), col_idx, axis=1)
    rows = np.minimum(row_idx + factor, h) - row_idx
    cols = np.minimum(col_idx + factor, w) - col_idx
    sizes = np.outer(rows, cols)
    return (2 * fg >= sizes).astype(np.uint8)


def build_pyramid(masks, strides) -> dict:
    """{stride: (n, h', w') uint8}: the (h, w) masks of a dataset, each
    downsampled to every feature stride by ``downsample_mask`` and stacked."""
    if not len(masks):
        raise ConfigurationError("no masks to downsample")
    return {s: np.stack([downsample_mask(m, s) for m in masks]) for s in sorted(set(strides))}


# ---------------------------------------------------------------------------
# the pooling operator
# ---------------------------------------------------------------------------

@dataclass
class MaskPoolRecord:
    """Branch decisions from a forward call, needed by the backward pass."""

    branch_fg: Array  # (n, oh, ow) bool: True -> FG mean was emitted
    counts: Array     # (n, oh, ow): pixel count of the selected region
    kernel: int
    stride: int
    padding: int


def maskpool2d_forward(x: Array, m: Array, kernel: int = 3, stride: int = 2, padding: int = 1):
    """Mask-guided pooling; returns (pooled, MaskPoolRecord).

    ``m`` is a (h, w) mask shared by the batch or a (n, h, w) per-image batch
    at the same spatial resolution as ``x``; the same mask applies to every
    channel.
    """
    x = as_nchw(x)
    n, c, h, w = x.shape
    mb = _mask_batch(m, n, h, w)[:, None]
    _check_geometry(h, w, kernel, stride, padding, pooling=True)
    ph = _Phases(h, w, kernel, stride, padding)
    fg = ph.runs(ph.planes(mb, 0.0))
    n_fg = ph.crop(sum(fg))                    # (n,1,oh,ow)
    n_bg = window_counts(h, w, kernel, stride, padding) - n_fg
    branch_fg = n_fg >= n_bg
    counts = np.where(branch_fg, n_fg, n_bg)
    # An all-FG or all-BG window selects every valid pixel, and a padded pixel adds +0.0
    # either way, so a plain sum is each such window's selected sum.  The windows that
    # straddle the mask boundary are summed again: selected iff the mask bit equals the branch.
    views = ph.runs(ph.planes(x, 0.0))
    total = np.zeros((n, c, ph.span))
    for v in views:
        total += v
    b, _, r, q = np.nonzero((n_fg > 0) & (n_bg > 0))
    at, branch = r * ph.wq + q, branch_fg[b, 0, r, q]
    straddle = np.zeros((len(b), c))
    for v, f in zip(views, fg):
        straddle += v[b, :, at] * (f[b, 0, at] == branch)[:, None]
    total[b, :, at] = straddle
    record = MaskPoolRecord(branch_fg=branch_fg[:, 0], counts=counts[:, 0],
                            kernel=kernel, stride=stride, padding=padding)
    return (ph.crop(total) / counts).astype(x.dtype), record


def maskpool2d_backward(x: Array, m: Array, grad_out: Array, record: MaskPoolRecord) -> Array:
    """Distribute grad/count into the pixels of each window's selected region.  The record tells
    which windows straddle the mask boundary; ``m`` is checked as in the forward, read only there."""
    if record is None:
        raise ConfigurationError("maskpool2d_backward requires the record from the paired forward call")
    x = as_nchw(x)
    grad_out = as_nchw(grad_out)
    n, c, h, w = x.shape
    ph = _Phases(h, w, record.kernel, record.stride, record.padding)
    if grad_out.shape != (n, c, ph.oh, ph.ow):
        raise ConfigurationError(f"grad_out shape {grad_out.shape} != expected {(n, c, ph.oh, ph.ow)}")
    mb = _mask_batch(m, n, h, w)[:, None]
    share = grad_out / record.counts[:, None]
    b, r, q = np.nonzero(record.counts < window_counts(h, w, record.kernel, record.stride, record.padding))
    at, branch, straddle = r * ph.wq + q, record.branch_fg[b, r, q], share[b, :, r, q]
    part = ph.widen(share, x.dtype)

    def parts():
        # every window pixel's part is the share, but in a straddling window only the
        # selected pixels get it and the others get share * 0 (+-0.0, or NaN from inf)
        for f in ph.runs(ph.planes(mb, 0.0)):
            part[b, :, at] = straddle * (f[b, 0, at] == branch)[:, None]
            yield part
    return ph.fold(parts(), x.shape, x.dtype)


# ---------------------------------------------------------------------------
# interventions on activations and masks
# ---------------------------------------------------------------------------

def bg_scale(x: Array, m: Array, w: float) -> Array:
    """Multiply background (mask == 0) activations by ``w``; FG passes through bitwise."""
    x = as_nchw(x)
    n, c, h, wd = x.shape
    mb = _mask_batch(m, n, h, wd)
    keep = mb[:, None].astype(bool)
    return np.where(keep, x, x * x.dtype.type(w))


def _morph_step(m: Array, combine) -> Array:
    """One unit 3x3 8-connected step of a bool mask: ``combine`` (np.logical_or
    dilates, np.logical_and erodes) reduces the 9 shifted views of the
    zero-padded mask."""
    h, w = m.shape
    p = np.pad(m, 1)
    return combine.reduce([p[di:di + h, dj:dj + w] for di in range(3) for dj in range(3)])


def morph_perturb(m: Array, mode: str, area_factor: float) -> Array:
    """Iterate unit 3x3 8-connected morphology until the FG area first crosses
    area_factor * original_area (>= for dilate, <= for erode).

    The factor is a target area ratio; each loop iteration applies exactly one
    morphological step and the first mask crossing the threshold is returned.
    An empty mask is returned unchanged.  If a step no longer changes the mask
    (saturated frame or vanished FG) the current mask is returned.
    """
    m = as_binary_mask(m)
    if area_factor == 1:
        raise ConfigurationError("area_factor 1 requests a no-op perturbation")
    if mode == "dilate":
        if not area_factor > 1:
            raise ConfigurationError(f"dilate requires area_factor > 1, got {area_factor}")
    elif mode == "erode":
        if not 0 < area_factor < 1:
            raise ConfigurationError(f"erode requires area_factor in (0, 1), got {area_factor}")
    else:
        raise ConfigurationError(f"unknown morphology mode {mode!r}")
    area0 = int(m.sum())
    if area0 == 0:
        return m.copy()
    target = area_factor * area0
    cur = m.astype(bool)
    combine = np.logical_or if mode == "dilate" else np.logical_and
    while True:
        nxt = _morph_step(cur, combine)
        if np.array_equal(nxt, cur):
            return cur.astype(np.uint8)
        cur = nxt
        area = int(cur.sum())
        if mode == "dilate" and area >= target:
            return cur.astype(np.uint8)
        if mode == "erode" and area <= target:
            return cur.astype(np.uint8)
