"""Bitwise agreement of the pooling slot's kernels with ``pool_reference`` at
the slot's real shapes: (8, 16, 64, 64) training batches and (16, 16, 64, 64)
evaluation batches, with masks that ``detector.mask_levels`` builds from
``scenegen`` records.

The property tests in ``test_pool_bitwise`` draw inputs at most 11 pixels
wide; here every phase plane has full-length edge rows and a widened tail
column, and about 7% of the windows straddle a mask boundary, as in training.
"""

import numpy as np
import pytest

import pool_reference as ref
from maskpool_lab import detector, maskpool, nn, scenegen
from test_pool_bitwise import SPECIAL, assert_bitwise

# inf and NaN inputs raise numpy's invalid-value warnings in both implementations
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SLOT = (3, 2, 1)  # the detector's pooling slot: kernel, stride, padding


@pytest.fixture(scope="module")
def slot_masks():
    """(16, 64, 64) masks at the slot's resolution for 128 px scenegen records."""
    records = scenegen.generate_dataset(16, 128, seed=12)
    levels = detector.mask_levels(detector.ModelConfig(pooling_variant="mask"), [r.fg_mask for r in records])
    (masks,) = levels.values()
    assert masks.shape == (16, 64, 64)
    return masks


def slot_case(n, kind, seed):
    """Post-ReLU activations on a 1/8 grid (so windows hold many ties) and a gradient;
    ``special`` sets a fifth of both to signed zeros, infinities and NaN."""
    rng = np.random.default_rng(seed)
    x = np.maximum(np.round(rng.standard_normal((n, 16, 64, 64)) * 8) / 8, 0).astype(np.float32)
    g = rng.standard_normal((n, 16, 32, 32)).astype(np.float32)
    if kind == "special":
        for a in (x, g):
            pick = rng.random(a.shape) < 0.2
            a[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return x, g


CASES = [(n, kind) for n in (8, 16) for kind in ("relu", "special")]


@pytest.mark.parametrize("n,kind", CASES)
def test_maxpool_at_slot_shape(n, kind):
    x, g = slot_case(n, kind, seed=n)
    y, argmax = nn.maxpool2d_forward(x, *SLOT)
    y_ref, argmax_ref = ref.maxpool2d_forward(x, *SLOT)
    assert_bitwise(y, y_ref, nan_payload=True)
    assert_bitwise(argmax, argmax_ref)
    assert_bitwise(nn.maxpool2d_backward(x, argmax, g, *SLOT),
                   ref.maxpool2d_backward(x, argmax_ref, g, *SLOT))


@pytest.mark.parametrize("n,kind", CASES)
def test_avgpool_at_slot_shape(n, kind):
    x, g = slot_case(n, kind, seed=n + 1)
    assert_bitwise(nn.avgpool2d_forward(x, *SLOT), ref.avgpool2d_forward(x, *SLOT))
    assert_bitwise(nn.avgpool2d_backward(x, g, *SLOT), ref.avgpool2d_backward(x, g, *SLOT))


@pytest.mark.parametrize("n,kind", CASES)
def test_maskpool_at_slot_shape(slot_masks, n, kind):
    x, g = slot_case(n, kind, seed=n + 2)
    m = slot_masks[:n]
    y, record = maskpool.maskpool2d_forward(x, m, *SLOT)
    y_ref, record_ref = ref.maskpool2d_forward(x, m, *SLOT)
    straddle = record.counts < nn.window_counts(64, 64, *SLOT)
    assert 0.02 < straddle.mean() < 0.2  # the straddling windows' own path is exercised
    assert_bitwise(y, y_ref)
    assert_bitwise(record.branch_fg, record_ref.branch_fg)
    assert_bitwise(record.counts, record_ref.counts)
    assert_bitwise(maskpool.maskpool2d_backward(x, m, g, record),
                   ref.maskpool2d_backward(x, m, g, record_ref))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape,kernel,stride,padding",
                         [((8, 16, 64, 64),) + SLOT] + [((2, 3, 13, 11),) + geometry for geometry in
                                                        [SLOT, (2, 2, 0), (3, 1, 1), (4, 3, 3), (1, 2, 0)]])
def test_finite_inputs_raise_no_floating_point_error(slot_masks, shape, kernel, stride, padding):
    # the widened columns of the phase planes never reach a division or an overflow
    rng = np.random.default_rng(kernel * 10 + stride)
    n, _, h, w = shape
    x = (rng.standard_normal(shape) * 1e30).astype(np.float32)
    m = slot_masks[:n] if h == 64 else rng.integers(0, 2, (n, h, w), np.uint8)
    g = rng.standard_normal((n, shape[1], nn.out_size(h, kernel, stride, padding),
                             nn.out_size(w, kernel, stride, padding))).astype(np.float32)
    with np.errstate(all="raise"):
        y, argmax = nn.maxpool2d_forward(x, kernel, stride, padding)
        nn.maxpool2d_backward(x, argmax, g, kernel, stride, padding)
        nn.avgpool2d_forward(x, kernel, stride, padding)
        nn.avgpool2d_backward(x, g, kernel, stride, padding)
        y, record = maskpool.maskpool2d_forward(x, m, kernel, stride, padding)
        maskpool.maskpool2d_backward(x, m, g, record)
