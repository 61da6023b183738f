"""The detector's network walk against the former tuple-plan walker
(tests/plan_reference.py), compared as bit patterns: head outputs for every
pooling variant x placement x background mode, parameter gradients of a
training step, analytic cost counts, and short trainings."""

import numpy as np
import pytest

import plan_reference as ref
from maskpool_lab import detector, maskpool, nn, scenegen

COMBOS = [(v, p) for v in detector.POOLING_VARIANTS for p in detector.POOL_PLACEMENTS]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def head_tensor(head):
    return np.concatenate([head.objectness, head.class_logits, head.box_reg], axis=1)


def make_model(variant, placement, seed=3):
    cfg = detector.ModelConfig(pooling_variant=variant, pool_placement=placement,
                               image_size=64, channels=(8, 16, 24, 24))
    model = detector.build_model(cfg, seed)
    # the zero-initialised head would make every output a bias and pass no
    # gradient into the trunk
    head = model.layers["head"]
    head.weights[...] = np.random.default_rng(seed).standard_normal(head.weights.shape) * 0.1
    return model


@pytest.fixture(scope="module")
def batch():
    records = scenegen.generate_dataset(4, 64, seed=8, size_range=(12, 28),
                                        bias=scenegen.BiasSpec.concentrated(3, 4, 0.85))
    x = detector.images_to_tensor(np.stack([r.image for r in records]))
    pyramids = [maskpool.build_pyramid(r.fg_mask, {2, 4, 8}) for r in records]
    levels = {s: np.stack([p.at_stride(s) for p in pyramids]) for s in (2, 4, 8)}
    return records, x, pyramids, levels


def training_pass(model, x, levels, targets):
    """One training forward + backward through the detector; returns the raw head."""
    step = detector.Pass(detector.build_ops(model.cfg), model, levels, keep=True)
    raw = step.forward(x)
    head = detector.DetHeadOutput.from_raw(raw, model.cfg.num_classes)
    step.backward(detector.compute_loss(head, targets)[1])
    return raw


@pytest.mark.parametrize("bg_mode", (None, "slot", "all"))
@pytest.mark.parametrize("variant,placement", COMBOS)
def test_forward_head_bitwise(batch, variant, placement, bg_mode):
    _, x, pyramids, levels = batch
    model = make_model(variant, placement)
    w = 1.0 if bg_mode is None else 0.625
    want, _ = ref._run_forward(model, x, levels, w, bg_mode, keep=False)
    got = detector.forward(model, x, pyramids, w, perturb_all_stages=bg_mode == "all")
    assert same_bits(head_tensor(got), want)
    if bg_mode is not None:  # the weight reached the network
        base = detector.forward(model, x, pyramids)
        assert not same_bits(head_tensor(base), want)


@pytest.mark.parametrize("variant,placement", COMBOS)
def test_training_gradients_bitwise(batch, variant, placement):
    records, x, _, levels = batch
    cfg = make_model(variant, placement).cfg
    targets = detector.assign_targets([r.instances for r in records], cfg.grid_size, cfg.grid_stride)
    old, new = make_model(variant, placement), make_model(variant, placement)
    want, cache = ref._run_forward(old, x, levels, 1.0, None, keep=True)
    head = detector.DetHeadOutput.from_raw(want, cfg.num_classes)
    ref._run_backward(old, cache, detector.compute_loss(head, targets)[1], levels, 1.0)
    assert same_bits(training_pass(new, x, levels, targets), want)
    for name in old.layer_order():
        a, b = new.layers[name], old.layers[name]
        assert np.any(b.grad_weights != 0), name
        assert same_bits(a.grad_weights, b.grad_weights), name
        assert same_bits(a.grad_bias, b.grad_bias), name


@pytest.mark.parametrize("variant,placement", COMBOS)
def test_cost_counts_equal(variant, placement):
    cfg = detector.ModelConfig(pooling_variant=variant, pool_placement=placement)
    model = detector.build_model(cfg, seed=0)
    for size in (None, 96):
        got = detector.count_params_flops(model, size)
        assert got == ref.count_params_flops(model, size)
        assert all(type(v) is int for v in got)


@pytest.mark.parametrize("variant", detector.POOLING_VARIANTS)
def test_short_training_checkpoint_bitwise(batch, variant):
    records = batch[0]
    cfg = make_model(variant, "post_stem").cfg
    opt = nn.OptimizerConfig()
    got = detector.train(records, cfg, opt, iterations=5, batch_size=3, seed=4, log_every=0)
    want = ref.train(records, cfg, opt, iterations=5, batch_size=3, seed=4)
    assert got.tensors.keys() == want.tensors.keys()
    for name, tensor in want.tensors.items():
        assert same_bits(got.tensors[name], tensor), name
