"""Mask pooling operator tests: hand-evaluated windows, a nested-loop oracle,
finite differences, and the degeneracy/locality/morphology properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskpool_lab import maskpool, nn
from maskpool_lab.errors import ConfigurationError


def maskpool_oracle(x, m, kernel, stride, padding):
    """Direct per-window evaluation of the majority-vote pooling rule."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    y = np.zeros((n, c, oh, ow))
    selected = {}
    for ni in range(n):
        for i in range(oh):
            for j in range(ow):
                fg_pix, bg_pix = [], []
                for ki in range(kernel):
                    for kj in range(kernel):
                        yy = i * stride - padding + ki
                        xx = j * stride - padding + kj
                        if 0 <= yy < h and 0 <= xx < w:
                            (fg_pix if m[ni, yy, xx] else bg_pix).append((yy, xx))
                chosen = fg_pix if len(fg_pix) >= len(bg_pix) else bg_pix
                selected[(ni, i, j)] = chosen
                for ci in range(c):
                    y[ni, ci, i, j] = np.mean([x[ni, ci, a, b] for a, b in chosen])
    return y, selected


class TestDownsample:
    def test_all_zero(self):
        m = np.zeros((6, 6), np.uint8)
        assert np.all(maskpool.downsample_mask(m, 3) == 0)

    def test_tie_goes_to_fg(self):
        m = np.array([[1, 1], [0, 0]], np.uint8)
        assert maskpool.downsample_mask(m, 2).tolist() == [[1]]

    def test_minority_fg_becomes_bg(self):
        m = np.array([[1, 0], [0, 0]], np.uint8)
        assert maskpool.downsample_mask(m, 2).tolist() == [[0]]

    def test_factor_one_is_copy(self):
        m = np.array([[1, 0], [0, 1]], np.uint8)
        out = maskpool.downsample_mask(m, 1)
        assert np.array_equal(out, m) and out is not m

    def test_partial_edge_blocks(self):
        m = np.ones((5, 7), np.uint8)
        out = maskpool.downsample_mask(m, 2)
        assert out.shape == (3, 4)  # ceil(5/2) x ceil(7/2)
        assert np.all(out == 1)

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError, match="non-binary mask"):
            maskpool.downsample_mask(np.full((2, 2), 7, np.uint8), 2)

    @given(h=st.integers(1, 17), w=st.integers(1, 17),
           a=st.integers(1, 4), b=st.integers(1, 4), seed=st.integers(0, 999))
    @settings(max_examples=60)
    def test_pyramid_shape_consistency(self, h, w, a, b, seed):
        rng = np.random.default_rng(seed)
        m = (rng.uniform(size=(h, w)) < 0.5).astype(np.uint8)
        two_step = maskpool.downsample_mask(maskpool.downsample_mask(m, a), b)
        one_step = maskpool.downsample_mask(m, a * b)
        assert two_step.shape == one_step.shape

    def test_pyramid_levels(self):
        m = (np.arange(64).reshape(8, 8) % 3 == 0).astype(np.uint8)
        levels = maskpool.build_pyramid([m, 1 - m, m], [4, 2])
        assert sorted(levels) == [2, 4]
        assert levels[2].shape == (3, 4, 4) and levels[4].shape == (3, 2, 2)
        assert levels[2].dtype == np.uint8
        assert np.array_equal(levels[2][1], maskpool.downsample_mask(1 - m, 2))
        assert np.array_equal(levels[4][2], maskpool.downsample_mask(m, 4))


class TestForward:
    def x9(self):
        return np.arange(1.0, 10.0, dtype=np.float32).reshape(1, 1, 3, 3)

    def test_all_fg_equals_average(self):
        y, rec = maskpool.maskpool2d_forward(self.x9(), np.ones((3, 3), np.uint8), 3, 1, 0)
        assert y.reshape(()) == pytest.approx(5.0)
        assert rec.branch_fg.all() and rec.counts.reshape(()) == 9

    def test_bg_majority_takes_bg_mean(self):
        m = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], np.uint8)
        y, rec = maskpool.maskpool2d_forward(self.x9(), m, 3, 1, 0)
        # n_F = 4 < n_B = 5 -> mean of {3, 6, 7, 8, 9}
        assert y.reshape(()) == pytest.approx(6.6)
        assert not rec.branch_fg.any() and rec.counts.reshape(()) == 5

    def test_border_tie_takes_fg_branch(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32).reshape(1, 1, 2, 2)
        m = np.array([[1, 0], [0, 1]], np.uint8)
        y, rec = maskpool.maskpool2d_forward(x, m, 3, 2, 1)
        assert y.reshape(()) == pytest.approx(2.5)
        assert rec.branch_fg.all() and rec.counts.reshape(()) == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            maskpool.maskpool2d_forward(self.x9(), np.ones((4, 4), np.uint8), 3, 1, 0)

    def test_zero_valid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            maskpool.maskpool2d_forward(self.x9(), np.ones((3, 3), np.uint8), 3, 2, 3)

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 2, 1), (3, 1, 0), (2, 2, 0), (3, 1, 1)])
    def test_matches_nested_loop_oracle(self, rng, kernel, stride, padding):
        x = rng.standard_normal((2, 3, 7, 6)).astype(np.float32)
        m = (rng.uniform(size=(2, 7, 6)) < 0.5).astype(np.uint8)
        y, _ = maskpool.maskpool2d_forward(x, m, kernel, stride, padding)
        ref, _ = maskpool_oracle(x, m, kernel, stride, padding)
        assert np.abs(y - ref).max() < 1e-6

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_degeneracy_all_fg_and_all_bg(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 2, 9, 9)).astype(np.float32)
        avg = nn.avgpool2d_forward(x, 3, 2, 1)
        for bit in (1, 0):
            m = np.full((9, 9), bit, np.uint8)
            y, _ = maskpool.maskpool2d_forward(x, m, 3, 2, 1)
            assert np.abs(y - avg).max() < 1e-6

    def test_branch_exclusivity_record(self, rng):
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        m = (rng.uniform(size=(8, 8)) < 0.4).astype(np.uint8)
        y, rec = maskpool.maskpool2d_forward(x, m, 3, 2, 1)
        _, selected = maskpool_oracle(x, m[None], 3, 2, 1)
        for (ni, i, j), pixels in selected.items():
            bits = {int(m[a, b]) for a, b in pixels}
            assert bits == {1 if rec.branch_fg[ni, i, j] else 0}
            assert rec.counts[ni, i, j] == len(pixels)
            assert y[ni, 0, i, j] == pytest.approx(np.mean([x[ni, 0, a, b] for a, b in pixels]), abs=1e-6)

    def test_per_channel_same_mask(self, rng):
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        m = (rng.uniform(size=(6, 6)) < 0.5).astype(np.uint8)
        y, rec = maskpool.maskpool2d_forward(x, m, 3, 2, 1)
        for c in range(4):
            yc, _ = maskpool.maskpool2d_forward(x[:, c:c + 1], m, 3, 2, 1)
            assert np.array_equal(y[:, c:c + 1], yc)


class TestBackward:
    def test_zero_grad_out(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        m = (rng.uniform(size=(6, 6)) < 0.5).astype(np.uint8)
        y, rec = maskpool.maskpool2d_forward(x, m, 3, 2, 1)
        gx = maskpool.maskpool2d_backward(x, m, np.zeros_like(y), rec)
        assert np.all(gx == 0)

    def test_bg_branch_share(self):
        x = np.arange(1.0, 10.0, dtype=np.float32).reshape(1, 1, 3, 3)
        m = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], np.uint8)
        _, rec = maskpool.maskpool2d_forward(x, m, 3, 1, 0)
        gx = maskpool.maskpool2d_backward(x, m, np.ones((1, 1, 1, 1), np.float32), rec)
        expect = np.where(m == 0, 0.2, 0.0)
        assert np.allclose(gx[0, 0], expect)

    def test_missing_record_rejected(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        with pytest.raises(ConfigurationError):
            maskpool.maskpool2d_backward(x, np.ones((4, 4), np.uint8),
                                         np.ones((1, 1, 2, 2), np.float32), None)

    def test_finite_differences(self, rng):
        x = rng.standard_normal((1, 2, 7, 7)).astype(np.float32)
        m = (rng.uniform(size=(7, 7)) < 0.5).astype(np.uint8)

        def fwd(xx):
            return maskpool.maskpool2d_forward(xx, m, 3, 2, 1)[0]

        def bwd(xx, g):
            _, rec = maskpool.maskpool2d_forward(xx, m, 3, 2, 1)
            return maskpool.maskpool2d_backward(xx, m, g, rec)

        assert nn.grad_check(fwd, bwd, x, rng=rng) < 1e-3

    def test_gradient_locality(self, rng):
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        m = (rng.uniform(size=(8, 8)) < 0.3).astype(np.uint8)
        y, rec = maskpool.maskpool2d_forward(x, m, 3, 2, 1)
        gx = maskpool.maskpool2d_backward(x, m, np.ones_like(y), rec)
        _, selected = maskpool_oracle(x, m[None], 3, 2, 1)
        ever_selected = np.zeros((8, 8), bool)
        for pixels in selected.values():
            for a, b in pixels:
                ever_selected[a, b] = True
        assert np.all(gx[0, 0][~ever_selected] == 0)
        # selected pixels accumulate grad/count over every window selecting them
        assert np.all(gx[0, 0][ever_selected] > 0)


class TestBgScale:
    def test_identity_weight_bitwise(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        m = (rng.uniform(size=(5, 5)) < 0.5).astype(np.uint8)
        assert np.array_equal(maskpool.bg_scale(x, m, 1.0), x)

    def test_scales_bg_only(self):
        x = np.full((1, 1, 2, 2), 2.0, np.float32)
        m = np.array([[1, 0], [0, 1]], np.uint8)
        y = maskpool.bg_scale(x, m, 0.5)
        assert y[0, 0].tolist() == [[2.0, 1.0], [1.0, 2.0]]

    @pytest.mark.parametrize("w", [0.5, 1.0, 2.75])
    def test_fg_invariance_bitwise(self, rng, w):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        m = (rng.uniform(size=(6, 6)) < 0.5).astype(np.uint8)
        y = maskpool.bg_scale(x, m, w)
        fg = m.astype(bool)
        assert np.array_equal(y[:, :, fg], x[:, :, fg])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype_bitwise(self, rng, dtype):
        x = rng.standard_normal((2, 3, 6, 6)).astype(dtype)
        x[0, 0, 0, :3] = (-0.0, np.inf, np.nan)
        m = (rng.uniform(size=(6, 6)) < 0.5).astype(np.uint8)
        m[0, :3] = 0
        y = maskpool.bg_scale(x, m, 0.75)
        expected = x.copy()
        expected[:, :, m == 0] *= dtype(0.75)
        assert y.dtype == dtype and y.tobytes() == expected.tobytes()

    def test_all_fg_identity(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        assert np.array_equal(maskpool.bg_scale(x, np.ones((4, 4), np.uint8), 2.0), x)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            maskpool.bg_scale(np.zeros((1, 1, 4, 4), np.float32), np.ones((3, 3), np.uint8), 0.5)


class TestMorph:
    def square_mask(self, frame=16, side=4):
        m = np.zeros((frame, frame), np.uint8)
        lo = (frame - side) // 2
        m[lo:lo + side, lo:lo + side] = 1
        return m

    def test_one_dilation_step_crosses(self):
        m = self.square_mask()
        out = maskpool.morph_perturb(m, "dilate", 1.5)
        assert out.sum() == 36  # 4x4 -> 6x6 after one 8-connected step; 36 >= 1.5*16

    def test_exactly_one_step_when_factor_just_below_ratio(self):
        m = self.square_mask()  # one step multiplies area by 36/16 = 2.25
        out = maskpool.morph_perturb(m, "dilate", 2.0)
        assert out.sum() == 36

    def test_two_steps_when_needed(self):
        m = self.square_mask()
        out = maskpool.morph_perturb(m, "dilate", 3.0)  # needs 48; 6x6=36 < 48 -> 8x8=64
        assert out.sum() == 64

    def test_erode_single_pixel_to_empty(self):
        m = np.zeros((8, 8), np.uint8)
        m[4, 4] = 1
        out = maskpool.morph_perturb(m, "erode", 0.5)
        assert out.sum() == 0

    def test_empty_mask_unchanged(self):
        m = np.zeros((8, 8), np.uint8)
        assert maskpool.morph_perturb(m, "dilate", 1.2).sum() == 0

    def test_precondition_errors(self):
        m = self.square_mask()
        with pytest.raises(ConfigurationError):
            maskpool.morph_perturb(m, "dilate", 1.0)
        with pytest.raises(ConfigurationError):
            maskpool.morph_perturb(m, "dilate", 0.9)
        with pytest.raises(ConfigurationError):
            maskpool.morph_perturb(m, "erode", 1.2)
        with pytest.raises(ConfigurationError):
            maskpool.morph_perturb(m, "open", 1.2)

    def test_saturated_frame_terminates(self):
        m = np.ones((6, 6), np.uint8)
        out = maskpool.morph_perturb(m, "dilate", 2.0)  # cannot reach 72; returns full frame
        assert out.sum() == 36

    @given(seed=st.integers(0, 10_000),
           factor=st.sampled_from([1.1, 1.2, 1.5]),
           efactor=st.sampled_from([0.8, 0.9, 0.5]))
    @settings(max_examples=40)
    def test_monotone_morphology(self, seed, factor, efactor):
        rng = np.random.default_rng(seed)
        m = (rng.uniform(size=(12, 12)) < 0.3).astype(np.uint8)
        area = m.sum()
        assert maskpool.morph_perturb(m, "dilate", factor).sum() >= area
        assert maskpool.morph_perturb(m, "erode", efactor).sum() <= area
