"""Bitwise agreement of ``nn.conv2d_forward`` / ``nn.conv2d_backward`` with the
kernels in ``conv_reference``, with the backward given the forward's im2col
columns and without them.

Outputs, accumulated ``grad_weights`` / ``grad_bias`` and input gradients must
match bit for bit (compared as unsigned integers, so the sign of zero
counts), at float32 and at the float64 precision ``grad_check`` drives, on
inputs and gradients full of post-ReLU zeros, signed zeros, +-inf and NaN,
with and without the input gradient, and at every conv geometry of the
detector at 128 px.

Where the reference's input gradient holds a NaN, any NaN passes: the fold
adds the same operands in the same order, but which of two NaN operands (say
an input NaN and the one inf - inf makes) a sum returns depends on the
operand order inside numpy's loops, which differs between strided and
contiguous slices.  Outputs and parameter gradients come from unchanged code
and keep the payload too.

The stride-1 fold multiplies on an output grid widened by kernel - 1 zero
columns per row, so it relies on the BLAS gemm computing each output column
the same way whatever the number of columns.  OpenBLAS's sgemm does; its
dgemm computes the last (columns mod 8) of a large product with another
kernel, so at float64 (gradient checks only) the input gradient can differ
from the reference in the last bits: ``test_float64_fold_limit`` pins that
limit, and every float32 case stays bitwise.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import conv_reference as ref
from maskpool_lab import detector, nn

# inf and NaN inputs raise numpy's invalid-value warnings in both implementations
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SPECIAL = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]


def bits(a):
    a = np.asarray(a)
    return a.view(f"u{a.itemsize}")


def assert_bitwise(actual, expected, nan_payload=True):
    """Same shape, dtype and bits in every entry; without ``nan_payload`` any
    NaN matches a NaN."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    keep = np.ones(expected.shape, bool)
    if not nan_payload:
        assert np.array_equal(np.isnan(actual), np.isnan(expected))
        keep = ~np.isnan(expected)
    assert np.array_equal(bits(actual)[keep], bits(expected)[keep])


def special_values(rng, shape, dtype, share):
    """Normals, with ``share`` of the entries from a palette of signed zeros,
    infinities and NaN."""
    x = rng.standard_normal(shape).astype(dtype)
    pick = rng.random(shape) < share
    x[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return x


def layers(rng, oc, ic, k):
    """Three identical LayerParams (reference, saved columns, rebuilt columns)
    whose gradient buffers already hold a sum, so the accumulation into them
    is compared too."""
    w, gw = rng.standard_normal((2, oc, ic, k, k)).astype(np.float32)
    b, gb = rng.standard_normal((2, oc)).astype(np.float32)
    out = [nn.LayerParams(weights=w.copy(), bias=b.copy()) for _ in range(3)]
    for p in out:
        p.grad_weights[...], p.grad_bias[...] = gw, gb
    return out


def check_case(x, g, params, stride, padding, input_grad=True):
    """Forward and backward of the library, with the forward's columns and
    without, against the reference, bit for bit."""
    old, saved, rebuilt = params
    y_ref = ref.conv2d_forward(x, old, stride, padding)
    gx_ref = ref.conv2d_backward(x, old, g, stride, padding, input_grad=input_grad)
    y, cols = nn.conv2d_forward(x, saved, stride, padding, with_cols=True)
    assert_bitwise(y, y_ref)
    assert_bitwise(nn.conv2d_forward(x, rebuilt, stride, padding), y_ref)
    for p, c in ((saved, cols), (rebuilt, None)):
        gx = nn.conv2d_backward(x, p, g, stride, padding, input_grad=input_grad, cols=c)
        assert_bitwise(p.grad_weights, old.grad_weights)
        assert_bitwise(p.grad_bias, old.grad_bias)
        if input_grad:
            assert_bitwise(gx, gx_ref, nan_payload=False)
        else:
            assert gx is None and gx_ref is None


@st.composite
def conv_case(draw):
    kernel = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.integers(0, kernel // 2))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    low = max(1, kernel - 2 * padding)
    h, w = draw(st.integers(low, low + 9)), draw(st.integers(low, low + 9))
    n, ic, oc = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = special_values(rng, (n, ic, h, w), dtype, draw(st.sampled_from([0.0, 0.05, 0.3])))
    if draw(st.booleans()):
        x = np.maximum(x, dtype(0))  # post-ReLU: zeros everywhere
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    g = special_values(rng, (n, oc, oh, ow), dtype, draw(st.sampled_from([0.0, 0.05, 0.3])))
    return x, g, layers(rng, oc, ic, kernel), stride, padding, draw(st.booleans())


@given(conv_case())
def test_random_geometries(case):
    check_case(*case)


def test_all_signed_zero_gradient_folds_to_positive_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
    g = np.full((2, 2, 6, 7), -0.0, np.float32)
    check_case(x, g, layers(rng, 2, 3, 3), 1, 1)


@pytest.mark.parametrize("kernel,padding,size", [(3, 0, 3), (5, 1, 3), (5, 2, 1)])
def test_single_output_pixel(kernel, padding, size):
    # one output column: numpy multiplies by it with gemv, not gemm
    rng = np.random.default_rng(2)
    for ic in (1, 2, 3):
        for oc in (2, 4, 8):
            x = rng.standard_normal((3, ic, size, size)).astype(np.float32)
            g = rng.standard_normal((3, oc, 1, 1)).astype(np.float32)
            check_case(x, g, layers(rng, oc, ic, kernel), 1, padding)


@pytest.mark.parametrize("at", [(2, 0), (1, 1), (0, 2)])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("stride", [1, 2])
def test_non_finite_weight(bad, stride, at):
    # the stride-1 fold widens the output grid with zero columns, and
    # inf * 0 is NaN there: such a layer must still give the reference's bits
    rng = np.random.default_rng(1)
    params = layers(rng, 3, 2, 3)
    for p in params:
        p.weights[1, 0][at] = bad
    x = rng.standard_normal((2, 2, 7, 6)).astype(np.float32)
    oh, ow = nn.out_size(7, 3, stride, 1), nn.out_size(6, 3, stride, 1)
    g = rng.standard_normal((2, 3, oh, ow)).astype(np.float32)
    check_case(x, g, params, stride, 1)


def test_float64_fold_limit():
    # oh*ow = 225 columns (225 mod 8 = 1) of a 144 x 32 x 225 product: past
    # the size where dgemm's column tail changes kernel
    rng = np.random.default_rng(3)
    for dtype in (np.float32, np.float64):
        old, new, _ = layers(rng, 32, 16, 3)
        x = rng.standard_normal((2, 16, 15, 15)).astype(dtype)
        g = rng.standard_normal((2, 32, 15, 15)).astype(dtype)
        gx_ref = ref.conv2d_backward(x, old, g, 1, 1)
        gx = nn.conv2d_backward(x, new, g, 1, 1)
        assert_bitwise(new.grad_weights, old.grad_weights)
        if dtype == np.float32:
            assert_bitwise(gx, gx_ref)
        else:
            np.testing.assert_allclose(gx, gx_ref, rtol=1e-11, atol=1e-12)


def detector_geometries(placement, image_size=128):
    """(name, in channels, size, stride, padding) of every conv of the default
    detector with the pooling slot at ``placement``."""
    cfg = detector.ModelConfig(pool_placement=placement, image_size=image_size)
    model = detector.build_model(cfg, seed=0)
    out, c, size = [], 3, image_size
    for op in detector.build_ops(cfg):
        if isinstance(op, detector.Conv):
            out.append((op.name, c, size, op.stride, op.padding))
        _, _, c, size = op.cost(model, c, size)
    return model, out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("placement", detector.POOL_PLACEMENTS)
def test_detector_geometries(placement, dtype):
    model, geometries = detector_geometries(placement)
    assert len(geometries) == 5
    rng = np.random.default_rng(7)
    for name, ic, size, stride, padding in geometries:
        oc, _, k, _ = model.layers[name].weights.shape
        params = layers(rng, oc, ic, k)
        x = np.maximum(rng.standard_normal((2, ic, size, size)), 0).astype(dtype)
        osize = nn.out_size(size, k, stride, padding)
        g = rng.standard_normal((2, oc, osize, osize)).astype(dtype)
        check_case(x, g, params, stride, padding, input_grad=name != "stem")
