"""Boundary-aware mask pooling and the mask utilities around it.

The pooling rule, per window: count foreground pixels (n_F) and background
pixels (n_B) among the window's valid (non-padded) positions.  If
n_F >= n_B, emit the mean of the foreground pixel values; otherwise the
mean of the background pixel values.  The same FG-wins tie rule is reused
when downsampling masks by majority vote.

The mask is a constant input: the backward pass routes gradient only into
the pixels of the selected region and never differentiates the mask.

Like the pooling ops in ``nn``, the operator reads its windows as strided
views of the padded input and mask (``nn._windows``).  Window sums
accumulate in float64, view by view in row-major window order from +0.0;
that order fixes the rounding that keeps checkpoints and reports
byte-identical, so it must not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .nn import (FLOAT, Array, _check_geometry, _crop, _pad, _valid_windows,
                 _windows, as_nchw, out_size)


def as_binary_mask(m: Array) -> Array:
    """Validate a (h, w) mask of {0, 1} values; returns uint8."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ConfigurationError(f"expected 2-d mask, got shape {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ConfigurationError("non-binary mask: values other than 0/1 present")
    return m.astype(np.uint8)


def _mask_batch(m: Array, n: int, h: int, w: int) -> Array:
    """Normalize a (h,w) or (n,h,w) mask to a float32 (n,h,w) batch."""
    m = np.asarray(m)
    if m.ndim == 2:
        m = m[None].repeat(n, axis=0)
    if m.shape != (n, h, w):
        raise ConfigurationError(f"mask shape {m.shape} does not match features ({n},{h},{w})")
    if not np.isin(m, (0, 1)).all():
        raise ConfigurationError("non-binary mask: values other than 0/1 present")
    return m.astype(FLOAT)


# ---------------------------------------------------------------------------
# mask pyramid
# ---------------------------------------------------------------------------

def downsample_mask(m: Array, factor: int) -> Array:
    """Majority-vote downsampling by ``factor`` (ties go to foreground).

    Each factor x factor block (edge blocks may be partial) becomes 1 iff its
    FG count is >= its BG count, matching the pooling branch rule.
    """
    m = as_binary_mask(m)
    if factor < 1:
        raise ConfigurationError(f"downsample factor must be >= 1, got {factor}")
    if factor == 1:
        return m.copy()
    h, w = m.shape
    row_idx = np.arange(0, h, factor)
    col_idx = np.arange(0, w, factor)
    fg = np.add.reduceat(np.add.reduceat(m.astype(np.int64), row_idx, axis=0), col_idx, axis=1)
    rows = np.minimum(row_idx + factor, h) - row_idx
    cols = np.minimum(col_idx + factor, w) - col_idx
    sizes = np.outer(rows, cols)
    return (2 * fg >= sizes).astype(np.uint8)


@dataclass
class MaskPyramid:
    """A mask downsampled to each feature stride; level 1 is the source mask."""

    levels: list  # of (stride, mask) pairs, ascending stride

    def at_stride(self, stride: int) -> Array:
        for s, mask in self.levels:
            if s == stride:
                return mask
        raise ConfigurationError(f"mask pyramid has no level for stride {stride} "
                                 f"(has {[s for s, _ in self.levels]})")


def build_pyramid(mask: Array, strides) -> MaskPyramid:
    mask = as_binary_mask(mask)
    wanted = sorted(set(int(s) for s in strides) | {1})
    return MaskPyramid(levels=[(s, downsample_mask(mask, s)) for s in wanted])


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


def _region_windows(mb: Array, kernel: int, stride: int, padding: int, oh: int, ow: int):
    """Per window pixel, the (n, 1, oh, ow) 0/1 maps of valid FG and valid BG pixels."""
    n, h, w = mb.shape
    fg = _windows(_pad(mb[:, None], padding), kernel, stride, oh, ow)
    valid = _valid_windows(h, w, kernel, stride, padding)
    return fg, [v - f for v, f in zip(valid, fg)]


def maskpool2d_forward(x: Array, m: Array, kernel: int = 3, stride: int = 2, padding: int = 1):
    """Mask-guided pooling; returns (pooled, MaskPoolRecord).

    ``m`` is a (h, w) mask shared by the batch or a (n, h, w) per-image batch
    at the same spatial resolution as ``x``; the same mask applies to every
    channel.
    """
    x = as_nchw(x)
    n, c, h, w = x.shape
    mb = _mask_batch(m, n, h, w)
    _check_geometry(h, w, kernel, stride, padding, pooling=True)
    oh, ow = out_size(h, kernel, stride, padding), out_size(w, kernel, stride, padding)
    fg, bg = _region_windows(mb, kernel, stride, padding, oh, ow)
    n_fg, n_bg = sum(fg), sum(bg)              # (n,1,oh,ow)
    branch_fg = n_fg >= n_bg
    counts = np.where(branch_fg, n_fg, n_bg)
    total = np.zeros((n, c, oh, ow))
    for v, f, b in zip(_windows(_pad(x, padding), kernel, stride, oh, ow), fg, bg):
        total += v * np.where(branch_fg, f, b)
    record = MaskPoolRecord(branch_fg=branch_fg[:, 0], counts=counts[:, 0],
                            kernel=kernel, stride=stride, padding=padding)
    return (total / counts).astype(x.dtype), record


def maskpool2d_backward(x: Array, m: Array, grad_out: Array, record: MaskPoolRecord) -> Array:
    """Distribute grad/count into the pixels of each window's selected region."""
    if record is None:
        raise ConfigurationError("maskpool2d_backward requires the record from the paired forward call")
    x = as_nchw(x)
    grad_out = as_nchw(grad_out)
    n, c, h, w = x.shape
    kernel, stride, padding = record.kernel, record.stride, record.padding
    oh, ow = out_size(h, kernel, stride, padding), out_size(w, kernel, stride, padding)
    if grad_out.shape != (n, c, oh, ow):
        raise ConfigurationError(f"grad_out shape {grad_out.shape} != expected {(n, c, oh, ow)}")
    fg, bg = _region_windows(_mask_batch(m, n, h, w), kernel, stride, padding, oh, ow)
    branch = record.branch_fg[:, None]
    share = grad_out / record.counts[:, None]
    gp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    for view, f, b in zip(_windows(gp, kernel, stride, oh, ow), fg, bg):
        view += (share * np.where(branch, f, b)).astype(x.dtype, copy=False)
    return _crop(gp, padding)


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


def _dilate8(m: Array) -> Array:
    h, w = m.shape
    p = np.pad(m, 1)
    out = np.zeros_like(m)
    for di in range(3):
        for dj in range(3):
            out |= p[di:di + h, dj:dj + w]
    return out


def _erode8(m: Array) -> Array:
    h, w = m.shape
    p = np.pad(m, 1)
    out = np.ones_like(m)
    for di in range(3):
        for dj in range(3):
            out &= p[di:di + h, dj:dj + w]
    return out


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
    step = _dilate8 if mode == "dilate" else _erode8
    while True:
        nxt = step(cur)
        if np.array_equal(nxt, cur):
            return cur.astype(np.uint8)
        cur = nxt
        area = int(cur.sum())
        if mode == "dilate" and area >= target:
            return cur.astype(np.uint8)
        if mode == "erode" and area <= target:
            return cur.astype(np.uint8)
