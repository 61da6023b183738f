"""The im2col pooling kernels and the np.where ReLU backward the library used to
ship, kept as bitwise references for the strided-view kernels in ``nn`` and
``maskpool``.

Each window is copied into an (n, c, kernel*kernel, oh*ow) column buffer
(``nn._im2col``), reduced along the window axis, and gradients are folded
back with ``nn._col2im``.  The new kernels must reproduce these outputs,
argmax indices, ``MaskPoolRecord`` fields and input gradients bit for bit.
"""

import numpy as np

from maskpool_lab import maskpool, nn


def valid_window_counts(h, w, kernel, stride, padding):
    """(kernel*kernel, oh*ow) 0/1 map of window positions that fall inside the image."""
    oh = nn.out_size(h, kernel, stride, padding)
    ow = nn.out_size(w, kernel, stride, padding)
    ones = np.ones((1, 1, h, w), dtype=nn.FLOAT)
    return nn._im2col(nn._pad(ones, padding), kernel, stride, oh, ow)[0, 0]


def relu_backward(x, grad_out):
    x = nn.as_nchw(x)
    return np.where(x > 0, grad_out, 0.0).astype(x.dtype)


def maxpool2d_forward(x, kernel, stride, padding=0):
    x = nn.as_nchw(x)
    n, c, h, w = x.shape
    nn._check_geometry(h, w, kernel, stride, padding, pooling=True)
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    cols = nn._im2col(nn._pad(x, padding, value=-np.inf), kernel, stride, oh, ow)
    argmax = cols.argmax(axis=2)  # first occurrence on ties
    y = np.take_along_axis(cols, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    return y.reshape(n, c, oh, ow).astype(x.dtype), argmax


def maxpool2d_backward(x, argmax, grad_out, kernel, stride, padding=0):
    x = nn.as_nchw(x)
    grad_out = nn.as_nchw(grad_out)
    n, c, h, w = x.shape
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    gcols = np.zeros((n, c, kernel * kernel, oh * ow), dtype=x.dtype)
    np.put_along_axis(gcols, argmax[:, :, None, :], grad_out.reshape(n, c, 1, oh * ow), axis=2)
    return nn._col2im(gcols, x.shape, kernel, stride, padding, oh, ow)


def avgpool2d_forward(x, kernel, stride, padding=0):
    x = nn.as_nchw(x)
    n, c, h, w = x.shape
    nn._check_geometry(h, w, kernel, stride, padding, pooling=True)
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    cols = nn._im2col(nn._pad(x, padding), kernel, stride, oh, ow)
    counts = valid_window_counts(h, w, kernel, stride, padding).sum(axis=0)
    y = cols.sum(axis=2, dtype=np.float64) / counts
    return y.reshape(n, c, oh, ow).astype(x.dtype)


def avgpool2d_backward(x, grad_out, kernel, stride, padding=0):
    x = nn.as_nchw(x)
    grad_out = nn.as_nchw(grad_out)
    n, c, h, w = x.shape
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    valid = valid_window_counts(h, w, kernel, stride, padding)
    counts = valid.sum(axis=0)
    shared = (grad_out.reshape(n, c, 1, oh * ow) / counts) * valid
    return nn._col2im(shared.astype(x.dtype), x.shape, kernel, stride, padding, oh, ow)


def maskpool2d_forward(x, m, kernel=3, stride=2, padding=1):
    x = nn.as_nchw(x)
    n, c, h, w = x.shape
    mb = maskpool._mask_batch(m, n, h, w)
    nn._check_geometry(h, w, kernel, stride, padding, pooling=True)
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    xcols = nn._im2col(nn._pad(x, padding), kernel, stride, oh, ow)            # (n,c,k2,L)
    mcols = nn._im2col(nn._pad(mb[:, None], padding), kernel, stride, oh, ow)  # (n,1,k2,L)
    valid = valid_window_counts(h, w, kernel, stride, padding)                 # (k2,L)
    fg = mcols * valid
    n_fg = fg.sum(axis=2)                      # (n,1,L)
    n_valid = valid.sum(axis=0)                # (L,)
    branch_fg = n_fg >= (n_valid - n_fg)
    sel = np.where(branch_fg[:, :, None, :], fg, valid - fg)
    counts = np.where(branch_fg, n_fg, n_valid - n_fg)
    y = (xcols * sel).sum(axis=2, dtype=np.float64) / counts
    record = maskpool.MaskPoolRecord(branch_fg=branch_fg.reshape(n, oh, ow),
                                     counts=counts.reshape(n, oh, ow).astype(nn.FLOAT),
                                     kernel=kernel, stride=stride, padding=padding)
    return y.reshape(n, c, oh, ow).astype(x.dtype), record


def maskpool2d_backward(x, m, grad_out, record):
    x = nn.as_nchw(x)
    grad_out = nn.as_nchw(grad_out)
    n, c, h, w = x.shape
    kernel, stride, padding = record.kernel, record.stride, record.padding
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    mb = maskpool._mask_batch(m, n, h, w)
    mcols = nn._im2col(nn._pad(mb[:, None], padding), kernel, stride, oh, ow)
    valid = valid_window_counts(h, w, kernel, stride, padding)
    fg = mcols * valid
    branch = record.branch_fg.reshape(n, 1, 1, oh * ow)
    sel = np.where(branch, fg, valid - fg)                       # (n,1,k2,L)
    share = grad_out.reshape(n, c, oh * ow) / record.counts.reshape(n, 1, oh * ow)
    gcols = share[:, :, None, :] * sel
    return nn._col2im(gcols.astype(x.dtype), x.shape, kernel, stride, padding, oh, ow)
