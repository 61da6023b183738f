"""The convolution kernels the library used to ship, kept as bitwise references
for ``nn.conv2d_forward`` / ``nn.conv2d_backward``.

The backward rebuilds the padded im2col columns its forward made, forms the
weight gradient from them, and folds the input gradient back through the
kernel*kernel strided views of ``im2col_reference.col2im``.  The library's kernels must
reproduce these outputs, parameter gradients and input gradients bit for bit.
"""

import numpy as np

from im2col_reference import col2im, im2col, pad
from maskpool_lab import nn
from maskpool_lab.errors import ConfigurationError


def conv2d_forward(x, p, stride=1, padding=0):
    """Cross-correlation with zero padding."""
    x = nn.as_nchw(x)
    oc, ic, kh, kw = p.weights.shape
    if kh != kw:
        raise ConfigurationError("only square kernels supported")
    n, c, h, w = x.shape
    if c != ic:
        raise ConfigurationError(f"conv expects {ic} input channels, got {c}")
    nn._check_geometry(h, w, kh, stride, padding, pooling=False)
    oh, ow = nn.out_size(h, kh, stride, padding), nn.out_size(w, kw, stride, padding)
    cols = im2col(pad(x, padding), kh, stride, oh, ow).reshape(n, ic * kh * kw, oh * ow)
    wmat = p.weights.reshape(oc, ic * kh * kw).astype(x.dtype)
    y = np.matmul(wmat, cols) + p.bias.reshape(1, oc, 1).astype(x.dtype)
    return y.reshape(n, oc, oh, ow)


def conv2d_backward(x, p, grad_out, stride=1, padding=0, input_grad=True):
    """Gradients of conv2d_forward; accumulates into p.grad_weights / p.grad_bias."""
    x = nn.as_nchw(x)
    grad_out = nn.as_nchw(grad_out)
    oc, ic, kh, kw = p.weights.shape
    n, c, h, w = x.shape
    oh, ow = nn.out_size(h, kh, stride, padding), nn.out_size(w, kw, stride, padding)
    if grad_out.shape != (n, oc, oh, ow):
        raise ConfigurationError(f"grad_out shape {grad_out.shape} != expected {(n, oc, oh, ow)}")
    cols = im2col(pad(x, padding), kh, stride, oh, ow).reshape(n, ic * kh * kw, oh * ow)
    g = grad_out.reshape(n, oc, oh * ow)
    p.grad_weights += np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(p.weights.shape).astype(nn.FLOAT)
    p.grad_bias += g.sum(axis=(0, 2)).astype(nn.FLOAT)
    if not input_grad:
        return None
    gcols = np.matmul(p.weights.reshape(oc, -1).T.astype(x.dtype), g)
    return col2im(gcols.reshape(n, ic, kh * kw, oh * ow), x.shape, kh, stride, padding, oh, ow)
