"""Bitwise agreement of the stride-phase-plane pooling kernels and the
bit-select ReLU backward with the im2col / np.where references in
``pool_reference``.

Values, argmax indices, ``MaskPoolRecord`` fields and input gradients must
match bit for bit (compared as unsigned integers, so the sign of zero
counts), at float32 and at the float64 precision ``grad_check`` drives, on
inputs full of post-ReLU zeros, ties, +-inf and NaN.

Every drawn case has at least two windows.  For a single-window output
numpy's reduction in the reference switches to pairwise summation, so there
the reference is not row-major; ``test_single_window_sums_row_major`` pins
the new kernels' order for that case.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import pool_reference as ref
from maskpool_lab import maskpool, nn

# inf and NaN inputs raise numpy's invalid-value warnings in both implementations
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# (kernel, stride, padding): the geometries the operator tests use; (3, 2, 1)
# is the detector's pooling slot
GEOMETRIES = [(2, 2, 0), (3, 1, 0), (3, 2, 1)]

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, np.inf, -np.inf, np.nan]


def bits(a):
    a = np.asarray(a)
    return a.view(f"u{a.itemsize}") if a.dtype.kind == "f" else a


def assert_bitwise(actual, expected, nan_payload=False):
    """Same shape, dtype and bits in every entry.  Where the reference holds a
    NaN, any NaN passes unless ``nan_payload``: which of two NaN operands a sum
    returns depends on the operand order inside numpy's SIMD loops, so only
    selections (max pooling's forward, the ReLU mask) keep the payload."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    keep = np.ones(expected.shape, bool)
    if expected.dtype.kind == "f" and not nan_payload:
        assert np.array_equal(np.isnan(actual), np.isnan(expected))
        keep = ~np.isnan(expected)
    assert np.array_equal(bits(actual)[keep], bits(expected)[keep])


@st.composite
def values(draw, dtype, shape):
    # normals, with a drawn share of entries from a small palette that makes
    # ties, signed zeros, infinities and NaN common
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.standard_normal(shape) * 10).astype(dtype)
    pick = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    x[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return x


@st.composite
def pool_case(draw, wide=False):
    """A pooling case on one of GEOMETRIES or, when ``wide``, on any kernel
    1-4, stride 1-3 and padding up to kernel - 1, the most that leaves every
    window a valid pixel (border windows then hold a single one).  The wide
    draw has tests of its own, so the pinned geometries keep their share."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if wide:
        kernel, stride = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        padding = draw(st.integers(0, kernel - 1))
        low = max(1, kernel - 2 * padding)  # the smallest legal h and w
        h, w = (draw(st.one_of(st.just(low), st.integers(low, low + 6))) for _ in range(2))
    else:
        kernel, stride, padding = draw(st.sampled_from(GEOMETRIES))
        # from size 4 every pinned geometry has at least two windows per axis
        h, w = draw(st.integers(4, 9)), draw(st.integers(4, 9))
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    assume(oh * ow >= 2)
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    x = draw(values(dtype, (n, c, h, w)))
    if draw(st.booleans()):
        x = np.maximum(x, dtype(0))  # post-ReLU: zeros and ties everywhere
    g = draw(values(dtype, (n, c, oh, ow)))
    return x, g, kernel, stride, padding


@st.composite
def mask_case(draw, wide=False):
    x, g, kernel, stride, padding = draw(pool_case(wide))
    n, _, h, w = x.shape
    kind = draw(st.sampled_from(["random", "fg", "bg"]))
    shape = draw(st.sampled_from([(h, w), (n, h, w)]))
    if kind == "random":
        m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2, shape, np.uint8)
    else:
        m = np.full(shape, kind == "fg", dtype=np.uint8)
    return x, g, m, kernel, stride, padding


def check_maxpool(case):
    x, g, kernel, stride, padding = case
    y, argmax = nn.maxpool2d_forward(x, kernel, stride, padding)
    y_ref, argmax_ref = ref.maxpool2d_forward(x, kernel, stride, padding)
    assert_bitwise(y, y_ref, nan_payload=True)
    assert_bitwise(argmax, argmax_ref)
    gx = nn.maxpool2d_backward(x, argmax, g, kernel, stride, padding)
    assert_bitwise(gx, ref.maxpool2d_backward(x, argmax_ref, g, kernel, stride, padding))


def check_avgpool(case):
    x, g, kernel, stride, padding = case
    assert_bitwise(nn.avgpool2d_forward(x, kernel, stride, padding),
                   ref.avgpool2d_forward(x, kernel, stride, padding))
    assert_bitwise(nn.avgpool2d_backward(x, g, kernel, stride, padding),
                   ref.avgpool2d_backward(x, g, kernel, stride, padding))


def check_maskpool(case):
    x, g, m, kernel, stride, padding = case
    y, record = maskpool.maskpool2d_forward(x, m, kernel, stride, padding)
    y_ref, record_ref = ref.maskpool2d_forward(x, m, kernel, stride, padding)
    assert_bitwise(y, y_ref)
    assert_bitwise(record.branch_fg, record_ref.branch_fg)
    assert_bitwise(record.counts, record_ref.counts)
    assert (record.kernel, record.stride, record.padding) == (kernel, stride, padding)
    assert_bitwise(maskpool.maskpool2d_backward(x, m, g, record),
                   ref.maskpool2d_backward(x, m, g, record_ref))


class TestMaxPool:
    @given(pool_case())
    def test_forward_and_backward(self, case):
        check_maxpool(case)

    @given(pool_case(wide=True))
    def test_forward_and_backward_wide(self, case):
        check_maxpool(case)

    def test_nan_and_signed_zero_selection(self):
        x = np.array([[-0.0, 0.0, 0.0],
                      [1.0, np.nan, 1.0],
                      [np.nan, 3.0, 3.0]], np.float32).reshape(1, 1, 3, 3)
        y, argmax = nn.maxpool2d_forward(x, 3, 1, 1)
        y_ref, argmax_ref = ref.maxpool2d_forward(x, 3, 1, 1)
        assert_bitwise(y, y_ref, nan_payload=True)
        assert_bitwise(argmax, argmax_ref)
        assert argmax.reshape(3, 3)[0, 0] == 8  # the window's only NaN is its last pixel

    def test_argmax_past_uint8(self):
        # a 17x17 window has 289 pixels, more than a uint8 count can index
        x = np.zeros((1, 1, 17, 18), np.float32)
        x[0, 0, 16, 16] = 1.0
        y, argmax = nn.maxpool2d_forward(x, 17, 1, 0)
        y_ref, argmax_ref = ref.maxpool2d_forward(x, 17, 1, 0)
        assert_bitwise(y, y_ref, nan_payload=True)
        assert_bitwise(argmax, argmax_ref)
        assert argmax.reshape(-1).tolist() == [288, 287]

    def test_signed_zero_tie_keeps_first(self):
        x = np.array([-0.0, 0.0, 0.0, -0.0], np.float32).reshape(1, 1, 2, 2)
        y, argmax = nn.maxpool2d_forward(x, 2, 2, 0)
        assert argmax.reshape(()) == 0 and np.signbit(y.reshape(()))


class TestAvgPool:
    @given(pool_case())
    def test_forward_and_backward(self, case):
        check_avgpool(case)

    @given(pool_case(wide=True))
    def test_forward_and_backward_wide(self, case):
        check_avgpool(case)


class TestMaskPool:
    @given(mask_case())
    def test_forward_record_and_backward(self, case):
        check_maskpool(case)

    @given(mask_case(wide=True))
    def test_forward_record_and_backward_wide(self, case):
        check_maskpool(case)


@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES + [(3, 2, 2)])
def test_sums_start_from_positive_zero(kernel, stride, padding):
    # a window of -0.0 sums to +0.0, as in the reference
    x = np.full((1, 1, 5, 5), -0.0, np.float32)
    y = nn.avgpool2d_forward(x, kernel, stride, padding)
    assert_bitwise(y, ref.avgpool2d_forward(x, kernel, stride, padding))
    ym, _ = maskpool.maskpool2d_forward(x, np.ones((5, 5), np.uint8), kernel, stride, padding)
    assert_bitwise(ym, y)
    assert not np.signbit(y).any()


def test_single_window_sums_row_major():
    # 1 + 0 + 2^60 is 2^60 in float64, so a row-major sum ends at 0;
    # pairwise summation would pair (2^60 - 2^60) first and keep the 1
    window = np.array([1.0, 0.0, 2.0 ** 60, -2.0 ** 60, 0, 0, 0, 0, 0], np.float32)
    x = window.reshape(1, 1, 3, 3)
    assert nn.avgpool2d_forward(x, 3, 1, 0).reshape(()) == 0.0
    y, _ = maskpool.maskpool2d_forward(x, np.ones((3, 3), np.uint8), 3, 1, 0)
    assert y.reshape(()) == 0.0


class TestReluBackward:
    EDGE = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_values_all_pairs(self, dtype):
        xs, gs = np.meshgrid(self.EDGE, self.EDGE, indexing="ij")
        x = xs.astype(dtype).reshape(1, 1, *xs.shape)
        g = gs.astype(dtype).reshape(x.shape)
        out = nn.relu_backward(x, g)
        assert_bitwise(out, ref.relu_backward(x, g), nan_payload=True)
        # dropped gradients are +0.0, whatever their sign or NaN-ness
        assert np.all(bits(out)[~(x > 0)] == 0)

    @given(st.sampled_from([np.float32, np.float64]), st.data())
    def test_random(self, dtype, data):
        shape = data.draw(st.tuples(*[st.integers(1, 4)] * 4))
        x = data.draw(values(dtype, shape))
        g = data.draw(values(dtype, shape))
        assert_bitwise(nn.relu_backward(x, g), ref.relu_backward(x, g), nan_payload=True)

    def test_float64_gradient_into_float32_activations(self, rng):
        x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        g = rng.standard_normal((1, 2, 3, 3))
        assert_bitwise(nn.relu_backward(x, g), ref.relu_backward(x, g), nan_payload=True)
