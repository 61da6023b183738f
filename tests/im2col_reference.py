"""The padded im2col helpers ``nn`` used to build its window ops on, kept as the
ground the bitwise references in ``conv_reference`` and ``pool_reference`` (and
the near-tie exclusion masks of the gradient checks) stand on.

Each helper pads explicitly and reads or writes the kernel*kernel strided views
of the padded buffer in row-major window order, so the library's pad-free
kernels are compared against code that does not share their border arithmetic.
"""

import numpy as np


def windows(xp, kernel, stride, oh, ow):
    """The kernel*kernel strided views of padded input xp, in row-major window
    order: view i*kernel + j is the (n, c, oh, ow) grid of window pixels (i, j)."""
    return [xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            for i in range(kernel) for j in range(kernel)]


def im2col(xp, kernel, stride, oh, ow):
    """(n, c, H, W) padded input -> (n, c, kernel*kernel, oh*ow) window columns."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kernel * kernel, oh, ow), dtype=xp.dtype)
    for k, view in enumerate(windows(xp, kernel, stride, oh, ow)):
        cols[:, :, k] = view
    return cols.reshape(n, c, kernel * kernel, oh * ow)


def crop(xp, padding):
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


def col2im(cols, shape, kernel, stride, padding, oh, ow):
    """Fold (n, c, kernel*kernel, oh*ow) columns back, accumulating overlaps."""
    n, c, h, w = shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, c, kernel * kernel, oh, ow)
    for k, view in enumerate(windows(xp, kernel, stride, oh, ow)):
        view += cols[:, :, k]
    return crop(xp, padding)


def pad(x, padding, value=0.0):
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                  constant_values=value)
