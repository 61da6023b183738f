"""The detector's former network walker, kept as a bitwise reference for the
op list in ``detector``.

The topology used to be written out as a tuple plan (``_plan``, an if-ladder
over pool placement x background mode), walked by string dispatch in
``_run_forward`` / ``_run_backward``, and driven by a ``train`` loop that
downsampled each batch's masks to the strides it reads.  The op list must
reproduce these head outputs, parameter gradients and checkpoints bit for
bit.  Its convolutions are the former kernels in ``conv_reference``.
"""

import numpy as np

import conv_reference
from maskpool_lab import detector, maskpool, nn
from maskpool_lab.errors import ConfigurationError


def _plan(cfg, bg_mode):
    """Ordered op list; bg_mode is None, 'slot' (pooling-slot input only) or 'all'."""
    plan = [("conv", "stem", 2, 1), ("relu",)]
    if bg_mode == "all":
        plan.append(("bg", 2))
    if cfg.pool_placement == "post_block1":
        plan += [("conv", "stage1", 1, 1), ("relu",)]
        if bg_mode == "all":
            plan.append(("bg", 2))
    if bg_mode == "slot":
        plan.append(("bg", 2))
    plan.append(("pool", 2))
    if bg_mode == "all":
        plan.append(("bg", 4))
    if cfg.pool_placement == "post_stem":
        plan += [("conv", "stage1", 2, 1), ("relu",)]
    else:
        plan += [("conv", "stage2", 2, 1), ("relu",)]
    if bg_mode == "all":
        plan.append(("bg", 8))
    if cfg.pool_placement == "post_stem":
        plan += [("conv", "stage2", 1, 1), ("relu",)]
    else:
        plan += [("conv", "stage3", 1, 1), ("relu",)]
    if bg_mode == "all":
        plan.append(("bg", 8))
    if cfg.pool_placement == "post_stem":
        plan += [("conv", "stage3", 1, 1), ("relu",)]
        if bg_mode == "all":
            plan.append(("bg", 8))
    plan.append(("conv", "head", 1, 0))
    plan.append(("boxscale",))
    return plan


def required_mask_strides(cfg, bg_mode=None):
    strides = set()
    if cfg.pooling_variant == "mask":
        strides.add(2)
    for op in _plan(cfg, bg_mode):
        if op[0] == "bg":
            strides.add(op[1])
    return strides


def _run_forward(model, x, mask_levels, bg_weight, bg_mode, keep):
    cache = [] if keep else None
    cur = nn.as_nchw(x)
    for op in _plan(model.cfg, bg_mode):
        kind = op[0]
        if kind == "conv":
            _, name, stride, padding = op
            if keep:
                cache.append((op, cur))
            cur = conv_reference.conv2d_forward(cur, model.layers[name], stride, padding)
        elif kind == "relu":
            if keep:
                cache.append((op, cur))
            cur = nn.relu_forward(cur)
        elif kind == "bg":
            m = mask_levels[op[1]]
            if keep:
                cache.append((op, None))
            cur = maskpool.bg_scale(cur, m, bg_weight)
        elif kind == "boxscale":
            if keep:
                cache.append((op, None))
            cur = cur.copy()
            cur[:, 1 + model.cfg.num_classes:] *= model.cfg.grid_stride
        elif kind == "pool":
            variant = model.cfg.pooling_variant
            if variant == "max":
                y, argmax = nn.maxpool2d_forward(cur, 3, 2, 1)
                if keep:
                    cache.append((op, (cur, argmax)))
            elif variant == "avg":
                y = nn.avgpool2d_forward(cur, 3, 2, 1)
                if keep:
                    cache.append((op, cur))
            else:
                y, record = maskpool.maskpool2d_forward(cur, mask_levels[2], 3, 2, 1)
                if keep:
                    cache.append((op, (cur, record)))
            cur = y
    return cur, cache


def _run_backward(model, cache, grad, mask_levels, bg_weight):
    for op, saved in reversed(cache):
        kind = op[0]
        if kind == "conv":
            _, name, stride, padding = op
            grad = conv_reference.conv2d_backward(saved, model.layers[name], grad, stride, padding,
                                                  input_grad=name != "stem")
        elif kind == "relu":
            grad = nn.relu_backward(saved, grad)
        elif kind == "bg":
            grad = maskpool.bg_scale(grad, mask_levels[op[1]], bg_weight)
        elif kind == "boxscale":
            grad = grad.copy()
            grad[:, 1 + model.cfg.num_classes:] *= model.cfg.grid_stride
        elif kind == "pool":
            variant = model.cfg.pooling_variant
            if variant == "max":
                x, argmax = saved
                grad = nn.maxpool2d_backward(x, argmax, grad, 3, 2, 1)
            elif variant == "avg":
                grad = nn.avgpool2d_backward(saved, grad, 3, 2, 1)
            else:
                x, record = saved
                grad = maskpool.maskpool2d_backward(x, mask_levels[2], grad, record)


def train(records, model_cfg, opt_cfg, iterations, batch_size=8, seed=0):
    """The training loop without logging, on a list of ImageRecord."""
    if not records:
        raise ConfigurationError("training dataset is empty")
    images = np.stack([r.image for r in records])
    instances = [r.instances for r in records]
    strides = required_mask_strides(model_cfg)
    masks = [r.fg_mask for r in records]

    model = detector.build_model(model_cfg, seed)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 1)))
    grid = model_cfg.grid_size
    batch_size = min(int(batch_size), len(records))
    order = np.empty(0, dtype=np.int64)
    cursor = 0
    for it in range(int(iterations)):
        if cursor + batch_size > order.size:
            order = rng.permutation(len(records))
            cursor = 0
        idx = order[cursor:cursor + batch_size]
        cursor += batch_size
        x = detector.images_to_tensor(images[idx])
        levels = {s: np.stack([maskpool.downsample_mask(masks[i], s) for i in idx])
                  for s in strides} or None
        raw, cache = _run_forward(model, x, levels, 1.0, None, keep=True)
        head = detector.DetHeadOutput.from_raw(raw, model_cfg.num_classes)
        targets = detector.assign_targets([instances[i] for i in idx], grid, model_cfg.grid_stride)
        _, grad_raw = detector.compute_loss(head, targets)
        _run_backward(model, cache, grad_raw, levels, 1.0)
        nn.sgd_step(model.params(), opt_cfg)
    return detector.checkpoint_from_model(model, seed=seed, iterations=int(iterations))
