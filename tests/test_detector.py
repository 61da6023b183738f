"""Detector tests: construction, pooling-slot behavior, target assignment,
decoding, training determinism and checkpoint round trips."""

import inspect
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conv_reference
from grad_check import grad_check
import plan_reference as plan_ref
import pool_reference as ref
import tensor_reference
from maskpool_lab import detector, maskpool, nn, scenegen
from maskpool_lab.errors import ConfigurationError, ParseError, TrainingDiverged


def small_cfg(variant="max", image_size=64, **kw):
    return detector.ModelConfig(pooling_variant=variant, image_size=image_size,
                                channels=kw.pop("channels", (8, 16, 24, 24)), **kw)


def small_records(n=16, size=64, seed=0):
    return scenegen.generate_dataset(n, size, seed=seed, size_range=(12, 28),
                                     bias=scenegen.BiasSpec.concentrated(3, 4, 0.85))


def batch_loss(model, records):
    cfg = model.cfg
    x = detector.images_to_tensor(np.stack([r.image for r in records]))
    levels = detector.mask_levels([r.fg_mask for r in records], detector.build_ops(cfg))
    head = detector.forward(model, x, levels)
    targets = detector.assign_targets([r.instances for r in records],
                                      cfg.grid_size, cfg.grid_stride)
    loss, _ = detector.compute_loss(head, targets)
    return loss


class TestBuild:
    def test_param_count_invariant_across_variants(self):
        # the pooling slot carries no parameters, so every variant has the same ones
        shapes = set()
        for variant in detector.POOLING_VARIANTS:
            model = detector.build_model(small_cfg(variant), seed=1)
            shapes.add(tuple((p.weights.shape, p.bias.shape) for p in model.params()))
        assert len(shapes) == 1

    def test_same_seed_same_init(self):
        a = detector.build_model(small_cfg(), seed=9)
        b = detector.build_model(small_cfg(), seed=9)
        for name in a.layer_order():
            assert np.array_equal(a.layers[name].weights, b.layers[name].weights)
            assert np.array_equal(a.layers[name].bias, b.layers[name].bias)

    def test_default_head_grid(self):
        cfg = detector.ModelConfig()
        assert cfg.image_size == 128 and cfg.grid_size == 16

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            detector.ModelConfig(pooling_variant="sum")
        with pytest.raises(ConfigurationError):
            detector.ModelConfig(image_size=100)
        with pytest.raises(ConfigurationError):
            detector.ModelConfig(channels=(8, 8))
        with pytest.raises(ConfigurationError):
            detector.ModelConfig.from_dict({"unknown_field": 1})

    @pytest.mark.parametrize("key,value", [
        ("score_threshold", float("nan")), ("score_threshold", float("inf")),
        ("score_threshold", -0.01), ("score_threshold", 1.5), ("score_threshold", "0.5"),
        ("nms_iou", float("nan")), ("nms_iou", 0.0), ("nms_iou", 1.01), ("nms_iou", None)])
    def test_decode_thresholds_validated(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            detector.ModelConfig(**{key: value})

    def test_decode_threshold_bounds_accepted(self):
        detector.ModelConfig(score_threshold=0.0, nms_iou=1.0)
        detector.ModelConfig(score_threshold=1, nms_iou=1e-9)

    @pytest.mark.parametrize("key,value", [
        ("image_size", "64"), ("image_size", 64.0), ("image_size", True),
        ("grid_stride", "8"), ("grid_stride", 8.0), ("num_classes", "3"),
        ("num_classes", True), ("num_classes", None),
        ("channels", [16, "32", 64, 64]), ("channels", [16, 32, 64.0, 64]),
        ("channels", [16, 32, 64, False]), ("channels", "16"), ("channels", 16)])
    def test_integer_fields_type_checked(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            detector.ModelConfig.from_dict({key: value})

    @pytest.mark.parametrize("key,value,message", [
        ("image_size", 0, "image_size must be an integer >= 8, got 0"),
        ("image_size", -8, "image_size must be an integer >= 8, got -8"),
        ("channels", [8, 0, 24, 24], "channels entry must be an integer >= 1, got 0"),
        ("channels", [8, -2, 24, 24], "channels entry must be an integer >= 1, got -2"),
        ("num_classes", 0, "num_classes must be an integer >= 1, got 0"),
        ("grid_stride", 0, "fixed topology produces grid_stride 8")])
    def test_sizes_below_their_bound_named(self, key, value, message):
        with pytest.raises(ConfigurationError, match=message):
            detector.ModelConfig.from_dict({key: value})

    def test_integer_fields_accept_numpy_integers(self):
        cfg = detector.ModelConfig(image_size=np.int64(64), channels=[np.int32(8)] * 4)
        assert cfg.grid_size == 8 and cfg.channels == (8, 8, 8, 8)
        assert all(type(c) is int for c in cfg.channels)


class TestForward:
    def test_mask_all_fg_equals_avg_variant(self, rng):
        x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        seed = 5
        avg = detector.build_model(small_cfg("avg"), seed=seed)
        msk = detector.build_model(small_cfg("mask"), seed=seed)
        levels = maskpool.build_pyramid([np.ones((64, 64), np.uint8)] * 2, {2})
        ya = detector.forward(avg, x)
        ym = detector.forward(msk, x, levels)
        for attr in ("objectness", "class_logits", "box_reg"):
            assert np.abs(getattr(ya, attr) - getattr(ym, attr)).max() < 1e-5

    def test_zero_image_spatially_constant_logits(self):
        model = detector.build_model(small_cfg("max"), seed=3)
        x = np.zeros((1, 3, 64, 64), np.float32)
        out = detector.forward(model, x)
        assert np.ptp(out.objectness) < 1e-6

    def test_batch_independence(self, rng):
        model = detector.build_model(small_cfg("max"), seed=3)
        x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        both = detector.forward(model, x)
        one = detector.forward(model, x[:1])
        two = detector.forward(model, x[1:])
        assert np.abs(both.objectness - np.concatenate([one.objectness, two.objectness])).max() < 1e-6

    def test_mask_variant_requires_masks(self, rng):
        model = detector.build_model(small_cfg("mask"), seed=3)
        with pytest.raises(ConfigurationError, match="masks required"):
            detector.forward(model, rng.standard_normal((1, 3, 64, 64)).astype(np.float32))

    def test_pass_names_each_missing_mask_stride(self):
        model = detector.build_model(small_cfg("mask"), seed=3)
        ops = detector.build_ops(model.cfg, 0.5, True)
        levels = maskpool.build_pyramid([np.ones((64, 64), np.uint8)], {2})
        with pytest.raises(ConfigurationError, match=r"masks required: .* \[4, 8\]"):
            detector.Pass(ops, model, levels)
        with pytest.raises(ConfigurationError, match=r"masks required: .* \[2, 4, 8\]"):
            detector.Pass(ops, model)

    def test_bg_weight_requires_masks_for_any_variant(self, rng):
        model = detector.build_model(small_cfg("max"), seed=3)
        with pytest.raises(ConfigurationError, match="masks required"):
            detector.forward(model, rng.standard_normal((1, 3, 64, 64)).astype(np.float32),
                             bg_weight=0.5)

    @pytest.mark.parametrize("placement", detector.POOL_PLACEMENTS)
    @pytest.mark.parametrize("variant", detector.POOLING_VARIANTS)
    def test_all_fg_masks_leave_every_stage_unscaled(self, rng, variant, placement):
        model = detector.build_model(small_cfg(variant, pool_placement=placement), seed=3)
        head = model.layers["head"]
        head.weights[...] = rng.standard_normal(head.weights.shape)
        x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        levels = maskpool.build_pyramid([np.ones((64, 64), np.uint8)] * 2, {2, 4, 8})
        base = detector.forward(model, x, levels)
        ops = detector.build_ops(model.cfg, 0.5, True)
        assert sum(isinstance(op, detector.BgScale) for op in ops) == 5
        for w in (0.0, 0.5, 2.75):
            out = detector.forward(model, x, levels, bg_weight=w, perturb_all_stages=True)
            for attr in ("objectness", "class_logits", "box_reg"):
                assert getattr(out, attr).tobytes() == getattr(base, attr).tobytes()
            run = detector.Pass(detector.build_ops(model.cfg, w, True), model, levels)
            cur = nn.as_nchw(x)
            for op in run.ops:
                nxt = op.forward(run, cur)
                if isinstance(op, detector.BgScale):
                    assert nxt.tobytes() == cur.tobytes()
                cur = nxt

    def test_post_block1_placement_same_grid(self, rng):
        model = detector.build_model(small_cfg("max", pool_placement="post_block1"), seed=3)
        out = detector.forward(model, rng.standard_normal((1, 3, 64, 64)).astype(np.float32))
        assert out.objectness.shape == (1, 1, 8, 8)


class TestTargets:
    def test_single_centered_object(self):
        inst = scenegen.Instance(1, (28.0, 28.0, 36.0, 36.0))
        t = detector.assign_targets([[inst]], grid=8, stride=8)
        assert t.positive.sum() == 1
        assert t.positive[0, 4, 4]
        assert t.class_ids[0, 4, 4] == 1
        # cell center (36, 36): l,t = 8, r,b = 0 -> distances to the box sides
        assert t.boxes[0, :, 4, 4].tolist() == [8.0, 8.0, 0.0, 0.0]

    def test_two_objects_two_cells(self):
        a = scenegen.Instance(0, (0.0, 0.0, 8.0, 8.0))
        b = scenegen.Instance(1, (40.0, 40.0, 56.0, 56.0))
        t = detector.assign_targets([[a, b]], grid=8, stride=8)
        assert t.positive.sum() == 2

    def test_collision_smaller_area_wins(self):
        big = scenegen.Instance(0, (0.0, 0.0, 7.0, 7.0))
        small = scenegen.Instance(1, (2.0, 2.0, 5.0, 5.0))
        t = detector.assign_targets([[big, small]], grid=8, stride=8)
        assert t.positive.sum() == 1
        assert t.class_ids[0, 0, 0] == 1


class TestLoss:
    def test_no_objects_bce_only(self, rng):
        head = detector.DetHeadOutput(
            objectness=rng.standard_normal((1, 1, 4, 4)).astype(np.float32),
            class_logits=rng.standard_normal((1, 3, 4, 4)).astype(np.float32),
            box_reg=rng.standard_normal((1, 4, 4, 4)).astype(np.float32))
        targets = detector.assign_targets([[]], grid=4, stride=8)
        loss, grad = detector.compute_loss(head, targets)
        ref, _ = nn.loss_bce_logits(head.objectness, targets.objectness)
        assert loss == pytest.approx(ref)
        assert np.all(grad[:, 1:] == 0)

    def test_saturated_perfect_outputs(self):
        inst = scenegen.Instance(1, (24.0, 24.0, 40.0, 40.0))
        targets = detector.assign_targets([[inst]], grid=8, stride=8)
        obj = np.where(targets.objectness > 0, 10.0, -10.0).astype(np.float32)
        cls = np.full((1, 3, 8, 8), -10.0, np.float32)
        cls[0, 1][targets.positive[0]] = 10.0
        head = detector.DetHeadOutput(obj, cls, targets.boxes.copy())
        loss, _ = detector.compute_loss(head, targets)
        assert loss < 1e-3

    def test_loss_gradient_finite_differences(self, rng):
        targets = detector.assign_targets(
            [[scenegen.Instance(2, (8.0, 8.0, 24.0, 24.0))]], grid=4, stride=8)

        def fwd(raw):
            head = detector.DetHeadOutput.from_raw(raw, 3)
            return np.float64(detector.compute_loss(head, targets)[0])

        def bwd(raw, g):
            head = detector.DetHeadOutput.from_raw(raw, 3)
            return detector.compute_loss(head, targets)[1] * g

        raw = rng.standard_normal((1, 8, 4, 4)).astype(np.float32)
        # keep box regressions away from the smooth-l1 seam at |d| = beta
        d = np.abs(raw[:, 4:] - targets.boxes) - 1.0
        exclude = np.zeros_like(raw, bool)
        exclude[:, 4:] = np.abs(d) < 1e-2
        err = grad_check(fwd, bwd, raw, grad_out=np.ones(()), exclude=exclude, rng=rng)
        assert err < 1e-3


IMAGES = np.random.default_rng(7).integers(0, 256, (16, 24, 32, 3), dtype=np.uint8)


@pytest.mark.parametrize("images", [IMAGES[:0], IMAGES[:1], IMAGES, list(IMAGES[:3]),
                                    IMAGES[np.array([5, 0, 5, 11])]],
                         ids=["0", "1", "16", "list", "fancy-indexed"])
def test_images_to_tensor_bits_match_reference(images):
    x = detector.images_to_tensor(images)
    want = tensor_reference.images_to_tensor(images)
    assert x.dtype == np.float32 and x.flags.c_contiguous and x.shape == want.shape
    assert np.array_equal(x.view(np.uint32), want.view(np.uint32))


class TestDecodeNms:
    def test_nms_suppresses_overlap(self):
        a = detector.Detection(0, 0.9, (0, 0, 10, 10), cell=0)
        b = detector.Detection(0, 0.8, (0, 0, 10, 10), cell=1)
        kept = detector.nms([a, b], 0.5)
        assert kept == [a]

    def test_disjoint_boxes_kept(self):
        a = detector.Detection(0, 0.9, (0, 0, 10, 10), cell=0)
        b = detector.Detection(0, 0.8, (20, 20, 30, 30), cell=1)
        assert len(detector.nms([a, b], 0.5)) == 2

    def test_per_class_nms_keeps_other_class(self):
        a = detector.Detection(0, 0.9, (0, 0, 10, 10), cell=0)
        b = detector.Detection(1, 0.8, (0, 0, 10, 10), cell=1)
        assert len(detector.nms([a, b], 0.5)) == 2

    def test_decode_thresholds_and_clips(self):
        cfg = small_cfg("max", score_threshold=0.3)
        g = cfg.grid_size
        obj = np.full((1, 1, g, g), -20.0, np.float32)
        cls = np.zeros((1, 3, g, g), np.float32)
        box = np.zeros((1, 4, g, g), np.float32)
        obj[0, 0, 2, 3] = 10.0
        cls[0, 1, 2, 3] = 10.0
        box[0, :, 2, 3] = (100.0, 6.0, 6.0, 6.0)  # left edge clips to 0
        dets = detector.decode(detector.DetHeadOutput(obj, cls, box), cfg)[0]
        assert len(dets) == 1
        d = dets[0]
        assert d.class_id == 1 and d.score > 0.9
        assert d.box == (0.0, 14.0, 34.0, 26.0)

    def test_decode_assign_round_trip(self):
        cfg = small_cfg("max")
        g = cfg.grid_size
        inst = scenegen.Instance(2, (11.0, 17.0, 39.0, 47.0))
        t = detector.assign_targets([[inst]], g, cfg.grid_stride)
        obj = np.where(t.objectness > 0, 12.0, -12.0).astype(np.float32)
        cls = np.full((1, 3, g, g), -12.0, np.float32)
        cls[0, 2][t.positive[0]] = 12.0
        dets = detector.decode(detector.DetHeadOutput(obj, cls, t.boxes), cfg)[0]
        best = max(dets, key=lambda d: d.score)
        assert best.class_id == 2
        assert np.abs(np.array(best.box) - np.array(inst.box)).max() <= 0.5


def train_and_save(prefix):
    """Train a max and a mask detector for 20 steps at 64 px and save them as
    ``<prefix>-<variant>.mplb``; sent to a child process as source."""
    records = scenegen.generate_dataset(16, 64, seed=0)
    for variant in ("max", "mask"):
        cfg = detector.ModelConfig(pooling_variant=variant, image_size=64)
        ckpt = detector.train(records, cfg, nn.OptimizerConfig(), iterations=20, seed=4)
        detector.save_checkpoint(ckpt, f"{prefix}-{variant}.mplb")


class TestTrain:
    def test_zero_iterations_equals_init(self):
        records = small_records(4)
        cfg = small_cfg("max")
        ckpt = detector.train(records, cfg, nn.OptimizerConfig(), iterations=0, seed=7)
        init = detector.build_model(cfg, seed=7)
        for name in init.layer_order():
            assert np.array_equal(ckpt.tensors[f"{name}.weight"], init.layers[name].weights)

    @pytest.mark.slow
    @pytest.mark.parametrize("variant", detector.POOLING_VARIANTS)
    def test_overfit_smoke_halves_loss(self, variant):
        records = small_records(16)
        cfg = small_cfg(variant)
        model0 = detector.build_model(cfg, seed=1)
        before = batch_loss(model0, records)
        ckpt = detector.train(records, cfg, nn.OptimizerConfig(), iterations=500,
                              batch_size=8, seed=1)
        after = batch_loss(detector.model_from_checkpoint(ckpt), records)
        assert after <= 0.5 * before

    def test_same_seed_same_checkpoint(self):
        records = small_records(8)
        cfg = small_cfg("mask")
        a = detector.train(records, cfg, nn.OptimizerConfig(), iterations=20, seed=3)
        b = detector.train(records, cfg, nn.OptimizerConfig(), iterations=20, seed=3)
        for name, tensor in a.tensors.items():
            assert np.array_equal(tensor, b.tensors[name])

    def test_checkpoint_bytes_independent_of_blas_threads(self, tmp_path):
        """Max and mask trainings at the default channels write the same checkpoint bytes in a
        child process held to one OpenBLAS thread as here, at the default thread count."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = (f"from maskpool_lab import detector, nn, scenegen\n{inspect.getsource(train_and_save)}"
                 f"train_and_save({str(tmp_path / 'one')!r})\n")
        proc = subprocess.run([sys.executable, "-c", child], env=env, timeout=300,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        train_and_save(str(tmp_path / "here"))
        for variant in ("max", "mask"):
            here, one = (tmp_path / f"{side}-{variant}.mplb" for side in ("here", "one"))
            assert here.read_bytes() == one.read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        records = small_records(4)
        cfg = small_cfg("max")
        with pytest.raises(TrainingDiverged), np.errstate(all="ignore"):
            detector.train(records, cfg, nn.OptimizerConfig(learning_rate=1e8),
                           iterations=50, seed=1)

    @pytest.mark.parametrize("key, value, message", [
        ("batch_size", 0, "batch_size must be an integer >= 1, got 0"),
        ("iterations", -1, "iterations must be an integer >= 0, got -1"),
        ("batch_size", 2.0, "batch_size must be an integer >= 1, got 2.0")])
    def test_bad_step_arguments_named(self, key, value, message):
        args = {"iterations": 1, "batch_size": 2, key: value}
        with pytest.raises(ConfigurationError, match=message):
            detector.train(small_records(2), small_cfg(), nn.OptimizerConfig(), seed=0, **args)

    def test_records_of_another_image_size_named(self):
        records = [*small_records(2), *small_records(2, size=128, seed=1)]
        with pytest.raises(ConfigurationError, match=f"record {records[2].image_id!r}: image is 128x128 px, "
                                                     "the model's image_size is 64"):
            detector.train(records, small_cfg(), nn.OptimizerConfig(), iterations=1, seed=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            detector.train([], small_cfg(), nn.OptimizerConfig(), iterations=1, seed=0)


def reference_backward(model, cache, grad, levels):
    """The training backward pass before the stem skip: every conv computes its
    input gradient; conv, pooling and ReLU use the former kernels of
    conv_reference and pool_reference."""
    for op, saved in reversed(cache):
        kind = op[0]
        if kind == "conv":
            _, name, stride, padding = op
            grad = conv_reference.conv2d_backward(saved, model.layers[name], grad, stride,
                                                  padding, input_grad=True)
        elif kind == "relu":
            grad = ref.relu_backward(saved, grad)
        elif kind == "boxscale":
            grad = grad.copy()
            grad[:, 1 + model.cfg.num_classes:] *= model.cfg.grid_stride
        elif model.cfg.pooling_variant == "max":
            x, argmax = saved
            grad = ref.maxpool2d_backward(x, argmax, grad, 3, 2, 1)
        elif model.cfg.pooling_variant == "avg":
            grad = ref.avgpool2d_backward(saved, grad, 3, 2, 1)
        else:
            x, record = saved
            grad = ref.maskpool2d_backward(x, levels[2], grad, record)
    assert grad.shape[1] == 3  # reached the image


class TestStemGradientSkip:
    @pytest.mark.parametrize("variant", detector.POOLING_VARIANTS)
    def test_parameter_gradients_bitwise(self, variant):
        records = small_records(8)
        cfg = small_cfg(variant)
        x = detector.images_to_tensor(np.stack([r.image for r in records]))
        levels = None
        if variant == "mask":
            levels = {2: np.stack([maskpool.downsample_mask(r.fg_mask, 2) for r in records])}
        targets = detector.assign_targets([r.instances for r in records],
                                          cfg.grid_size, cfg.grid_stride)

        def loss_grad(raw):
            _, grad = detector.compute_loss(detector.DetHeadOutput.from_raw(raw, 3), targets)
            return grad

        # the zero-initialised head passes no gradient into the trunk, so start
        # from a few SGD steps in
        ckpt = detector.train(records, cfg, nn.OptimizerConfig(), iterations=3, seed=5)
        trained, reference = detector.model_from_checkpoint(ckpt), detector.model_from_checkpoint(ckpt)
        step = detector.Pass(detector.build_ops(cfg), trained, levels, keep=True)
        step.backward(loss_grad(step.forward(x)))
        raw, cache = plan_ref._run_forward(reference, x, levels, 1.0, None, keep=True)
        reference_backward(reference, cache, loss_grad(raw), levels)
        for name in trained.layer_order():
            a, b = trained.layers[name], reference.layers[name]
            assert np.any(a.grad_weights != 0), name
            assert np.array_equal(a.grad_weights, b.grad_weights), name
            assert np.array_equal(a.grad_bias, b.grad_bias), name


@pytest.mark.parametrize("variant", detector.POOLING_VARIANTS)
def test_backward_releases_conv_columns(variant):
    records = small_records(2)
    cfg = small_cfg(variant)
    ops = detector.build_ops(cfg)
    model = detector.build_model(cfg, seed=1)
    levels = detector.mask_levels([r.fg_mask for r in records], detector.build_ops(cfg))
    step = detector.Pass(ops, model, levels, keep=True)
    raw = step.forward(detector.images_to_tensor(np.stack([r.image for r in records])))
    convs = [op for op in ops if isinstance(op, detector.Conv)]
    assert all(op.cols.ndim == 3 for op in convs)  # kept for the backward
    assert step.backward(np.ones_like(raw)) is None  # the stem skips its input gradient
    assert not [op for op in convs if hasattr(op, "cols")]


@pytest.mark.parametrize("variant", detector.POOLING_VARIANTS)
def test_inference_pass_keeps_nothing(variant):
    """Only a training walk keeps inputs, conv columns and pooling argmax or records."""
    records = small_records(2)
    cfg = small_cfg(variant)
    ops = detector.build_ops(cfg, 0.5)
    levels = detector.mask_levels([r.fg_mask for r in records], ops)
    x = detector.images_to_tensor(np.stack([r.image for r in records]))
    detector.Pass(ops, detector.build_model(cfg, seed=1), levels).forward(x)
    fields = {"name", "stride", "padding", "variant", "weight", "mask_stride"}  # the ops' definitions
    assert not [op for op in ops if set(vars(op)) - fields]


class TestWholeNetworkGradient:
    """Central differences through every op after the stem conv down to
    compute_loss, in float64: each pooling backward, the stride-2 and stride-1
    input-gradient folds, ReLU and the box scaling, in one chain."""

    @pytest.mark.parametrize("placement", detector.POOL_PLACEMENTS)
    @pytest.mark.parametrize("variant", detector.POOLING_VARIANTS)
    def test_finite_differences(self, variant, placement):
        cfg = small_cfg(variant, image_size=32, channels=(2, 3, 4, 4), pool_placement=placement)
        model = detector.build_model(cfg, seed=2)
        rng = np.random.default_rng(3)
        head = model.layers["head"]  # zero-initialised: it would pass no gradient on
        head.weights[...] = rng.standard_normal(head.weights.shape) * 0.5
        stem, *ops = detector.build_ops(cfg)
        assert stem.name == "stem"
        masks = [(rng.random((32, 32)) < 0.4).astype(np.uint8) for _ in range(2)]
        levels = detector.mask_levels(masks, detector.build_ops(cfg))
        instances = [[scenegen.Instance(1, (4.0, 6.0, 20.0, 22.0))],
                     [scenegen.Instance(2, (10.0, 3.0, 30.0, 17.0)),
                      scenegen.Instance(0, (1.0, 20.0, 9.0, 31.0))]]
        targets = detector.assign_targets(instances, cfg.grid_size, cfg.grid_stride)

        def loss(x):
            raw = detector.Pass(ops, model, levels).forward(x)
            return np.float64(detector.compute_loss(detector.DetHeadOutput.from_raw(raw, 3), targets)[0])

        def grad(x, g):
            step = detector.Pass(ops, model, levels, keep=True)
            raw = step.forward(x)
            _, grad_raw = detector.compute_loss(detector.DetHeadOutput.from_raw(raw, 3), targets)
            return step.backward(grad_raw) * g

        x = rng.standard_normal((2, 2, 16, 16))  # the stem's output
        # the first op is a ReLU: skip inputs whose differences would cross its kink
        err = grad_check(loss, grad, x, epsilon=1e-4, grad_out=np.ones(()),
                            exclude=np.abs(x) < 1e-2)
        assert err < 1e-3


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        records = small_records(4)
        ckpt = detector.train(records, small_cfg("mask"), nn.OptimizerConfig(),
                              iterations=5, seed=2)
        path = tmp_path / "ck.mplb"
        detector.save_checkpoint(ckpt, path)
        loaded = detector.load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.seed == ckpt.seed and loaded.iterations == ckpt.iterations
        for name, tensor in ckpt.tensors.items():
            assert np.array_equal(tensor, loaded.tensors[name])

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mplb"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigurationError, match="magic"):
            detector.load_checkpoint(path)

    def test_truncated_oversized_or_trailing_bytes_raise_parse_error(self, tmp_path):
        model = detector.build_model(small_cfg("max", channels=(2, 2, 2, 2)), seed=1)
        path = tmp_path / "ck.mplb"
        detector.save_checkpoint(detector.checkpoint_from_model(model, seed=1, iterations=0), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ConfigurationError if cut < 4 else ParseError) as err:
                detector.load_checkpoint(path)
            if cut >= 4:
                assert err.value.path == str(path) and 4 <= err.value.offset <= cut
        for bad, offset in ((data + b"\0", len(data)),  # trailing byte
                            (data[:8] + b"\xff" * 4 + data[12:], 12)):  # header length
            path.write_bytes(bad)
            with pytest.raises(ParseError) as err:
                detector.load_checkpoint(path)
            assert err.value.offset == offset

    def test_missing_or_extra_tensor_named(self):
        model = detector.build_model(small_cfg("max"), seed=1)
        ckpt = detector.checkpoint_from_model(model, seed=1, iterations=0)
        del ckpt.tensors["stage2.bias"]
        with pytest.raises(ConfigurationError, match="stage2.bias"):
            detector.model_from_checkpoint(ckpt)
        ckpt = detector.checkpoint_from_model(model, seed=1, iterations=0)
        ckpt.tensors["neck.weight"] = np.zeros((1, 1, 1, 1), np.float32)
        with pytest.raises(ConfigurationError, match="neck.weight"):
            detector.model_from_checkpoint(ckpt)

    def test_wrong_shape_tensor_named(self):
        model = detector.build_model(small_cfg("max"), seed=1)
        ckpt = detector.checkpoint_from_model(model, seed=1, iterations=0)
        ckpt.tensors["stage2.weight"] = ckpt.tensors["stage2.weight"][:, :1]
        with pytest.raises(ConfigurationError, match="checkpoint tensor stage2 has wrong shape"):
            detector.model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises_parse_error_at_its_offset(self, tmp_path, value):
        model = detector.build_model(small_cfg("max", channels=(2, 2, 2, 2)), seed=1)
        ckpt = detector.checkpoint_from_model(model, seed=1, iterations=0)
        ckpt.tensors["stage2.weight"].reshape(-1)[5] = value
        path = tmp_path / "ck.mplb"
        detector.save_checkpoint(ckpt, path)
        with pytest.raises(ParseError, match="stage2.weight") as err:
            detector.load_checkpoint(path)
        bad = np.frombuffer(path.read_bytes()[err.value.offset:err.value.offset + 4], "<f4")[0]
        assert np.array_equal(bad, np.float32(value), equal_nan=True)

    def test_zero_dimension_raises_parse_error_at_the_shape(self, tmp_path):
        model = detector.build_model(small_cfg("max", channels=(2, 2, 2, 2)), seed=1)
        path = tmp_path / "ck.mplb"
        detector.save_checkpoint(detector.checkpoint_from_model(model, seed=1, iterations=0), path)
        data = path.read_bytes()
        # magic, version, header length, header, tensor count, then the first name's length
        name_at = 16 + struct.unpack("<I", data[8:12])[0]
        shape_at = name_at + 4 + struct.unpack("<I", data[name_at:name_at + 4])[0]
        # an empty tensor whose other dimensions numpy cannot even shape
        path.write_bytes(data[:shape_at] + struct.pack("<4I", 0, 2**31, 2**31, 2**31) + data[shape_at + 16:])
        with pytest.raises(ParseError, match="zero dimension") as err:
            detector.load_checkpoint(path)
        assert err.value.path == str(path) and err.value.offset == shape_at

    def test_bad_header_model_config_names_the_file(self, tmp_path):
        model = detector.build_model(small_cfg("max", channels=(2, 2, 2, 2)), seed=1)
        ckpt = detector.checkpoint_from_model(model, seed=1, iterations=0)
        ckpt.config.pooling_variant = "median"  # bypasses __post_init__, as a foreign writer could
        path = tmp_path / "ck.mplb"
        detector.save_checkpoint(ckpt, path)
        with pytest.raises(ConfigurationError) as err:
            detector.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: pooling_variant must be one of")

    def test_header_thresholds_validated(self, tmp_path):
        model = detector.build_model(small_cfg("max", channels=(2, 2, 2, 2)), seed=1)
        ckpt = detector.checkpoint_from_model(model, seed=1, iterations=0)
        ckpt.config.nms_iou = float("nan")  # bypasses __post_init__, as a foreign writer could
        path = tmp_path / "ck.mplb"
        detector.save_checkpoint(ckpt, path)
        with pytest.raises(ConfigurationError, match="nms_iou"):
            detector.load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("image_size", "64"), ("num_classes", "3"),
                                           ("channels", [2, 2, "2", 2]), ("grid_stride", True)])
    def test_header_integer_fields_validated(self, tmp_path, key, value):
        model = detector.build_model(small_cfg("max", channels=(2, 2, 2, 2)), seed=1)
        ckpt = detector.checkpoint_from_model(model, seed=1, iterations=0)
        setattr(ckpt.config, key, value)  # bypasses __post_init__, as a foreign writer could
        path = tmp_path / "ck.mplb"
        detector.save_checkpoint(ckpt, path)
        with pytest.raises(ConfigurationError, match=key):
            detector.load_checkpoint(path)

    def test_load_then_forward_bitwise(self, tmp_path, rng):
        cfg = small_cfg("max")
        model = detector.build_model(cfg, seed=4)
        ckpt = detector.checkpoint_from_model(model, seed=4, iterations=0)
        path = tmp_path / "ck.mplb"
        detector.save_checkpoint(ckpt, path)
        reloaded = detector.model_from_checkpoint(detector.load_checkpoint(path))
        x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
        a = detector.forward(model, x)
        b = detector.forward(reloaded, x)
        assert np.array_equal(a.objectness, b.objectness)
        assert np.array_equal(a.class_logits, b.class_logits)
        assert np.array_equal(a.box_reg, b.box_reg)
