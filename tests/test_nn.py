"""Layer-library tests: hand cases, a nested-loop convolution oracle, and
finite-difference agreement for every backward pass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grad_check import grad_check
from im2col_reference import col2im, im2col, pad
from maskpool_lab import nn
from maskpool_lab.errors import ConfigurationError


def t4(values, shape):
    return np.asarray(values, dtype=np.float32).reshape(shape)


def conv_oracle(x, w, b, stride, padding):
    """Direct nested-loop cross-correlation, float64."""
    n, c, h, wd = x.shape
    oc, ic, k, _ = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for oi in range(oc):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(ic):
                        for ki in range(k):
                            for kj in range(k):
                                acc += xp[ni, ci, i * stride + ki, j * stride + kj] * w[oi, ci, ki, kj]
                    out[ni, oi, i, j] = acc + b[oi]
    return out


class TestConv:
    def test_zero_input(self, rng):
        p = nn.LayerParams.conv(1, 1, 3, rng)
        p.bias[...] = 0.0
        y = nn.conv2d_forward(np.zeros((1, 1, 3, 3), np.float32), p, 1, 0)
        assert np.all(y == 0.0)

    def test_scalar_case(self):
        p = nn.LayerParams(weights=t4([3.0], (1, 1, 1, 1)), bias=np.array([1.0], np.float32))
        x = t4([2.0], (1, 1, 1, 1))
        y = nn.conv2d_forward(x, p, 1, 0)
        assert y.reshape(()) == pytest.approx(7.0)
        gx = nn.conv2d_backward(x, p, t4([1.0], (1, 1, 1, 1)), 1, 0)
        assert gx.reshape(()) == pytest.approx(3.0)
        assert p.grad_weights.reshape(()) == pytest.approx(2.0)
        assert p.grad_bias[0] == pytest.approx(1.0)

    def test_matches_nested_loop_oracle(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        p = nn.LayerParams.conv(2, 3, 3, rng)
        y = nn.conv2d_forward(x, p, 1, 1)
        ref = conv_oracle(x, p.weights, p.bias, 1, 1)
        assert np.abs(y - ref).max() < 1e-6

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_oracle_geometries(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
        p = nn.LayerParams.conv(3, 4, 3, rng)
        y = nn.conv2d_forward(x, p, stride, padding)
        ref = conv_oracle(x, p.weights, p.bias, stride, padding)
        assert y.shape == ref.shape
        assert np.abs(y - ref).max() < 1e-5

    def test_backward_zero_grad_out(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        p = nn.LayerParams.conv(2, 2, 3, rng)
        gx = nn.conv2d_backward(x, p, np.zeros((1, 2, 2, 2), np.float32), 1, 0)
        assert np.all(gx == 0) and np.all(p.grad_weights == 0) and np.all(p.grad_bias == 0)

    def test_backward_without_input_grad(self, rng):
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        g = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
        full = nn.LayerParams.conv(3, 4, 3, rng)
        skip = nn.LayerParams(weights=full.weights, bias=full.bias)
        assert nn.conv2d_backward(x, full, g, 2, 1) is not None
        assert nn.conv2d_backward(x, skip, g, 2, 1, input_grad=False) is None
        assert np.array_equal(skip.grad_weights, full.grad_weights)
        assert np.array_equal(skip.grad_bias, full.grad_bias)

    def test_shape_mismatch_raises(self, rng):
        p = nn.LayerParams.conv(2, 2, 3, rng)
        with pytest.raises(ConfigurationError):
            nn.conv2d_forward(np.zeros((1, 1, 4, 4), np.float32), p, 1, 0)
        with pytest.raises(ConfigurationError):
            nn.conv2d_backward(np.zeros((1, 2, 4, 4), np.float32), p,
                               np.zeros((1, 2, 9, 9), np.float32), 1, 0)

    def test_grad_input_finite_differences(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        p = nn.LayerParams.conv(2, 2, 3, rng)

        def bwd(xx, g):
            p.zero_grad()
            return nn.conv2d_backward(xx, p, g, 1, 1)

        err = grad_check(lambda xx: nn.conv2d_forward(xx, p, 1, 1), bwd, x, rng=rng)
        assert err < 1e-3

    def test_grad_weights_bias_finite_differences(self, rng):
        # drive the conv at float64 so the differences measure the math
        x = rng.standard_normal((1, 2, 4, 4))
        p0 = nn.LayerParams.conv(2, 2, 3, rng)

        def fwd_w(w):
            p = nn.LayerParams(weights=w, bias=p0.bias.copy())
            return nn.conv2d_forward(x, p, 1, 1)

        def bwd_w(w, g):
            p = nn.LayerParams(weights=w, bias=p0.bias.copy())
            nn.conv2d_backward(x, p, g, 1, 1)
            return p.grad_weights

        assert grad_check(fwd_w, bwd_w, p0.weights, rng=rng) < 1e-3

        def fwd_b(b):
            p = nn.LayerParams(weights=p0.weights.copy(), bias=b.reshape(-1))
            return nn.conv2d_forward(x, p, 1, 1)

        def bwd_b(b, g):
            p = nn.LayerParams(weights=p0.weights.copy(), bias=b.reshape(-1))
            nn.conv2d_backward(x, p, g, 1, 1)
            return p.grad_bias.reshape(b.shape)

        assert grad_check(fwd_b, bwd_b, p0.bias.reshape(1, 1, 1, 2), rng=rng) < 1e-3


class TestRelu:
    def test_forward(self):
        x = t4([-1.0, 0.0, 2.0], (1, 1, 1, 3))
        assert nn.relu_forward(x).reshape(-1).tolist() == [0.0, 0.0, 2.0]

    def test_backward_masks_at_zero(self):
        x = t4([-1.0, 0.0, 2.0], (1, 1, 1, 3))
        g = t4([5.0, 5.0, 5.0], (1, 1, 1, 3))
        assert nn.relu_backward(x, g).reshape(-1).tolist() == [0.0, 0.0, 5.0]

    def test_finite_differences_away_from_kink(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        exclude = np.abs(x) < 1e-2
        err = grad_check(nn.relu_forward, nn.relu_backward, x, exclude=exclude, rng=rng)
        assert err < 1e-3


def _near_tie_window_pixels(x, kernel, stride, padding, gap=1e-2):
    """Exclusion mask: all pixels of any window whose top-2 values are closer than gap."""
    n, c, h, w = x.shape
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    cols = im2col(pad(x, padding, value=-np.inf), kernel, stride, oh, ow)
    top2 = np.sort(cols, axis=2)[:, :, -2:, :]
    risky = (top2[:, :, 1, :] - top2[:, :, 0, :]) < gap  # (n,c,L)
    indicator = np.broadcast_to(risky[:, :, None, :], cols.shape).astype(np.float32)
    folded = col2im(indicator.copy(), x.shape, kernel, stride, padding, oh, ow)
    return folded > 0


class TestMaxPool:
    def test_window_and_argmax(self):
        x = t4([1.0, 2.0, 3.0, 4.0], (1, 1, 2, 2))
        y, argmax = nn.maxpool2d_forward(x, 2, 2, 0)
        assert y.reshape(()) == 4.0
        assert argmax.reshape(()) == 3  # position (1,1) row-major

    def test_tie_routes_to_first_occurrence(self):
        x = t4([5.0, 5.0, 0.0, 0.0], (1, 1, 2, 2))
        y, argmax = nn.maxpool2d_forward(x, 2, 2, 0)
        assert y.reshape(()) == 5.0
        assert argmax.reshape(()) == 0
        gx = nn.maxpool2d_backward(x, argmax, t4([1.0], (1, 1, 1, 1)), 2, 2, 0)
        assert gx.reshape(-1).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_padding_never_selected(self):
        x = t4([-3.0], (1, 1, 1, 1))
        y, _ = nn.maxpool2d_forward(x, 3, 2, 1)
        assert y.reshape(()) == -3.0

    def test_zero_valid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.maxpool2d_forward(np.zeros((1, 1, 4, 4), np.float32), 2, 2, 2)

    def test_finite_differences(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        exclude = _near_tie_window_pixels(x, 3, 2, 1)

        def bwd(xx, g):
            _, arg = nn.maxpool2d_forward(xx, 3, 2, 1)
            return nn.maxpool2d_backward(xx, arg, g, 3, 2, 1)

        err = grad_check(lambda xx: nn.maxpool2d_forward(xx, 3, 2, 1)[0], bwd, x,
                            exclude=exclude, rng=rng)
        assert err < 1e-3


class TestAvgPool:
    def test_window_mean(self):
        x = t4([1.0, 2.0, 3.0, 4.0], (1, 1, 2, 2))
        assert nn.avgpool2d_forward(x, 2, 2, 0).reshape(()) == pytest.approx(2.5)

    def test_constant_preserved(self):
        x = np.full((1, 3, 5, 5), 7.25, np.float32)
        y = nn.avgpool2d_forward(x, 3, 2, 1)
        assert np.abs(y - 7.25).max() < 1e-6

    def test_full_extent_equals_mean(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        y = nn.avgpool2d_forward(x, 4, 4, 0)
        ref = x.mean(axis=(2, 3), dtype=np.float64)
        assert np.abs(y[:, :, 0, 0] - ref).max() < 1e-6

    def test_border_windows_use_valid_counts_only(self):
        # 2x2 input, kernel 3 stride 2 padding 1: each window sees the whole
        # input's single valid quadrant arrangement
        x = t4([1.0, 2.0, 3.0, 4.0], (1, 1, 2, 2))
        y = nn.avgpool2d_forward(x, 3, 2, 1)
        assert y.reshape(()) == pytest.approx(2.5)  # all 4 pixels valid, not 9

    def test_finite_differences(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)

        err = grad_check(lambda xx: nn.avgpool2d_forward(xx, 3, 2, 1),
                            lambda xx, g: nn.avgpool2d_backward(xx, g, 3, 2, 1), x, rng=rng)
        assert err < 1e-3


class TestLosses:
    def test_bce_analytic_point(self):
        loss, grad = nn.loss_bce_logits(np.zeros((1, 1, 1, 1), np.float32),
                                        np.full((1, 1, 1, 1), 0.5, np.float32))
        assert loss == pytest.approx(math.log(2.0), abs=1e-6)
        assert grad.reshape(()) == pytest.approx(0.0)

    def test_smooth_l1_zero_at_equality(self, rng):
        p = rng.standard_normal((1, 4, 2, 2)).astype(np.float32)
        valid = np.ones((1, 2, 2), bool)
        loss, grad = nn.loss_smooth_l1(p, p.copy(), valid)
        assert loss == 0.0 and np.all(grad == 0)

    def test_losses_zero_when_no_valid_cells(self, rng):
        logits = rng.standard_normal((1, 3, 2, 2)).astype(np.float32)
        tgt = np.zeros((1, 2, 2), np.int64)
        none = np.zeros((1, 2, 2), bool)
        loss, grad = nn.loss_softmax_ce(logits, tgt, none)
        assert loss == 0.0 and np.all(grad == 0)
        box = rng.standard_normal((1, 4, 2, 2)).astype(np.float32)
        loss, grad = nn.loss_smooth_l1(box, np.zeros_like(box), none)
        assert loss == 0.0 and np.all(grad == 0)

    def test_bce_finite_differences(self, rng):
        z = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        t = rng.uniform(0, 1, (1, 1, 3, 3)).astype(np.float32)
        err = grad_check(lambda zz: np.float64(nn.loss_bce_logits(zz, t)[0]),
                            lambda zz, g: nn.loss_bce_logits(zz, t)[1] * g,
                            z, grad_out=np.ones(()), rng=rng)
        assert err < 1e-3

    def test_ce_finite_differences(self, rng):
        z = rng.standard_normal((2, 3, 2, 2)).astype(np.float32)
        tgt = rng.integers(0, 3, (2, 2, 2))
        valid = rng.uniform(size=(2, 2, 2)) < 0.6
        valid[0, 0, 0] = True
        err = grad_check(lambda zz: np.float64(nn.loss_softmax_ce(zz, tgt, valid)[0]),
                            lambda zz, g: nn.loss_softmax_ce(zz, tgt, valid)[1] * g,
                            z, grad_out=np.ones(()), rng=rng)
        assert err < 1e-3

    def test_smooth_l1_finite_differences(self, rng):
        p = rng.standard_normal((1, 4, 3, 3)).astype(np.float32) * 2
        t = rng.standard_normal((1, 4, 3, 3)).astype(np.float32)
        valid = rng.uniform(size=(1, 3, 3)) < 0.7
        valid[0, 1, 1] = True
        # exclude entries near the quadratic/linear seam at |d| == beta
        d = np.abs(p.astype(np.float64) - t) - 1.0
        exclude = np.broadcast_to(np.abs(d) < 1e-2, p.shape)
        err = grad_check(lambda pp: np.float64(nn.loss_smooth_l1(pp, t, valid, 1.0)[0]),
                            lambda pp, g: nn.loss_smooth_l1(pp, t, valid, 1.0)[1] * g,
                            p, grad_out=np.ones(()), exclude=exclude, rng=rng)
        assert err < 1e-3


class TestSgd:
    def test_single_step(self):
        p = nn.LayerParams(weights=t4([2.0], (1, 1, 1, 1)), bias=np.zeros(1, np.float32))
        p.grad_weights[...] = 0.5
        nn.sgd_step([p], nn.OptimizerConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.0))
        assert p.weights.reshape(()) == pytest.approx(1.5)
        assert np.all(p.grad_weights == 0)

    def test_zero_grad_is_noop(self):
        p = nn.LayerParams(weights=t4([2.0], (1, 1, 1, 1)), bias=np.zeros(1, np.float32))
        nn.sgd_step([p], nn.OptimizerConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.0))
        assert p.weights.reshape(()) == 2.0

    def test_momentum_two_steps(self):
        # hand expansion: v1 = g, w -= lr*g ; v2 = 0.9 g + g, w -= lr*1.9g
        g = 0.25
        p = nn.LayerParams(weights=t4([1.0], (1, 1, 1, 1)), bias=np.zeros(1, np.float32))
        cfg = nn.OptimizerConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        p.grad_weights[...] = g
        nn.sgd_step([p], cfg)
        w1 = float(p.weights.reshape(()))
        assert w1 == pytest.approx(1.0 - 0.1 * g, rel=1e-6)
        p.grad_weights[...] = g
        nn.sgd_step([p], cfg)
        assert float(p.weights.reshape(())) == pytest.approx(w1 - 0.1 * 1.9 * g, rel=1e-6)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            nn.OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            nn.OptimizerConfig(momentum=1.0)
        with pytest.raises(ConfigurationError):
            nn.OptimizerConfig(weight_decay=-1e-3)


class TestGradCheck:
    def test_identity_op(self, rng):
        x = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        err = grad_check(lambda xx: xx, lambda xx, g: g, x, rng=rng)
        assert err < 1e-6


class TestDeterminism:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_conv_bitwise_repeatable(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        p = nn.LayerParams.conv(3, 4, 3, rng)
        y1 = nn.conv2d_forward(x, p, 2, 1)
        y2 = nn.conv2d_forward(x.copy(), p, 2, 1)
        assert np.array_equal(y1, y2)
        assert np.isfinite(y1).all()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_pooling_outputs_finite(self, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((1, 2, 7, 7)) * 10).astype(np.float32)
        y_max, _ = nn.maxpool2d_forward(x, 3, 2, 1)
        y_avg = nn.avgpool2d_forward(x, 3, 2, 1)
        assert np.isfinite(y_max).all() and np.isfinite(y_avg).all()
