"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Criteria 5-7 read the summary of one 3-seed study,
`experiments.run_study(StudySpec())` at the default desk scale (2000 train /
500 val images, 3000 iterations per run), the same study that
`scripts/run_bias_study.py` reports; it takes about 15 min on a 2-core box.
"""

import json
import time

import numpy as np
import pytest

import ap_oracle
from grad_check import grad_check
from im2col_reference import col2im, im2col, pad
from maskpool_lab import cli, detector, experiments, maskpool, metrics, nn, scenegen


def report(n, passed, detail=""):
    print(f"\n[acceptance] criterion {n}: {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, f"criterion {n} failed: {detail}"


# -------------------------------------------------------------------------
# criterion 1: gradient fidelity over 100 random (input, mask) pairs
# -------------------------------------------------------------------------

def _near_tie_exclusion(x, kernel, stride, padding, gap=1e-2):
    n, c, h, w = x.shape
    oh, ow = nn.out_size(h, kernel, stride, padding), nn.out_size(w, kernel, stride, padding)
    cols = im2col(pad(x, padding, value=-np.inf), kernel, stride, oh, ow)
    top2 = np.sort(cols, axis=2)[:, :, -2:, :]
    risky = (top2[:, :, 1, :] - top2[:, :, 0, :]) < gap
    indicator = np.broadcast_to(risky[:, :, None, :], cols.shape).astype(np.float32)
    return col2im(indicator.copy(), x.shape, kernel, stride, padding, oh, ow) > 0


def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(42)
    families = ("conv", "maskpool", "avgpool", "maxpool", "relu",
                "bce", "ce", "smooth_l1")
    worst = {f: 0.0 for f in families}
    for i in range(100):
        family = families[i % len(families)]
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 5))
        h, w = int(rng.integers(4, 10)), int(rng.integers(4, 10))
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        mask = (rng.uniform(size=(n, h, w)) < 0.5).astype(np.uint8)
        if family == "conv":
            p = nn.LayerParams.conv(c, int(rng.integers(1, 4)), 3, rng)

            def bwd(xx, g, p=p):
                p.zero_grad()
                return nn.conv2d_backward(xx, p, g, 1, 1)

            err = grad_check(lambda xx, p=p: nn.conv2d_forward(xx, p, 1, 1), bwd, x, rng=rng)
        elif family == "maskpool":
            def fwd(xx, mask=mask):
                return maskpool.maskpool2d_forward(xx, mask, 3, 2, 1)[0]

            def bwd(xx, g, mask=mask):
                _, rec = maskpool.maskpool2d_forward(xx, mask, 3, 2, 1)
                return maskpool.maskpool2d_backward(xx, mask, g, rec)

            err = grad_check(fwd, bwd, x, rng=rng)
        elif family == "avgpool":
            err = grad_check(lambda xx: nn.avgpool2d_forward(xx, 3, 2, 1),
                                lambda xx, g: nn.avgpool2d_backward(xx, g, 3, 2, 1), x, rng=rng)
        elif family == "maxpool":
            def bwd(xx, g):
                _, arg = nn.maxpool2d_forward(xx, 3, 2, 1)
                return nn.maxpool2d_backward(xx, arg, g, 3, 2, 1)

            err = grad_check(lambda xx: nn.maxpool2d_forward(xx, 3, 2, 1)[0], bwd, x,
                                exclude=_near_tie_exclusion(x, 3, 2, 1), rng=rng)
        elif family == "relu":
            err = grad_check(nn.relu_forward, nn.relu_backward, x,
                                exclude=np.abs(x) < 1e-2, rng=rng)
        elif family == "bce":
            tgt = rng.uniform(0, 1, x.shape).astype(np.float32)
            err = grad_check(lambda z: np.float64(nn.loss_bce_logits(z, tgt)[0]),
                                lambda z, g: nn.loss_bce_logits(z, tgt)[1] * g,
                                x, grad_out=np.ones(()), rng=rng)
        elif family == "ce":
            tgt = rng.integers(0, c, (n, h, w))
            valid = rng.uniform(size=(n, h, w)) < 0.5
            valid[0, 0, 0] = True
            err = grad_check(lambda z: np.float64(nn.loss_softmax_ce(z, tgt, valid)[0]),
                                lambda z, g: nn.loss_softmax_ce(z, tgt, valid)[1] * g,
                                x, grad_out=np.ones(()), rng=rng)
        else:  # smooth_l1
            tgt = rng.standard_normal(x.shape).astype(np.float32)
            valid = rng.uniform(size=(n, h, w)) < 0.7
            valid[0, 0, 0] = True
            seam = np.abs(np.abs(x.astype(np.float64) - tgt) - 1.0) < 1e-2
            err = grad_check(lambda z: np.float64(nn.loss_smooth_l1(z, tgt, valid, 1.0)[0]),
                                lambda z, g: nn.loss_smooth_l1(z, tgt, valid, 1.0)[1] * g,
                                x, grad_out=np.ones(()), exclude=seam, rng=rng)
        worst[family] = max(worst[family], err)
    elapsed = time.time() - t0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + f" ({elapsed:.0f}s)"
    report(1, max(worst.values()) < 1e-3 and elapsed < 60, detail)


# -------------------------------------------------------------------------
# criterion 2: pooling degeneracy (all-FG / all-BG masks equal avg pooling)
# -------------------------------------------------------------------------

def test_criterion_2_degeneracy():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 5))
        h, w = int(rng.integers(4, 12)), int(rng.integers(4, 12))
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        avg = nn.avgpool2d_forward(x, 3, 2, 1)
        for bit in (1, 0):
            y, _ = maskpool.maskpool2d_forward(x, np.full((h, w), bit, np.uint8), 3, 2, 1)
            worst = max(worst, float(np.abs(y - avg).max()))
    report(2, worst < 1e-6, f"max |maskpool - avgpool| = {worst:.2e} over 50 inputs x 2 masks")


# -------------------------------------------------------------------------
# criterion 3: AP oracle equivalence on 1000 random fixtures
# -------------------------------------------------------------------------

def test_criterion_3_ap_oracle():
    t0 = time.time()
    rng = np.random.default_rng(11)
    scores = [0.1, 0.25, 0.5, 0.5, 0.75, 0.9]

    def rand_box():
        x0, y0 = float(rng.uniform(0, 16)), float(rng.uniform(0, 16))
        return (x0, y0, x0 + float(rng.uniform(1, 8)), y0 + float(rng.uniform(1, 8)))

    mismatches = 0
    for _ in range(1000):
        dets = [{"image_id": str(rng.choice(["a", "b"])), "class_id": 0,
                 "score": float(rng.choice(scores)), "bbox": rand_box()}
                for _ in range(int(rng.integers(0, 7)))]
        gts = [{"image_id": str(rng.choice(["a", "b"])), "class_id": 0, "bbox": rand_box()}
               for _ in range(int(rng.integers(0, 5)))]
        if metrics.average_precision(dets, gts) != ap_oracle.brute_force_ap(dets, gts):
            mismatches += 1
    tp_first = metrics.average_precision(
        [{"image_id": "a", "score": 0.9, "bbox": (0, 0, 2, 2)}],
        [{"image_id": "a", "bbox": (0, 0, 2, 2)}])
    fp_first = metrics.average_precision(
        [{"image_id": "a", "score": 0.9, "bbox": (10, 10, 12, 12)},
         {"image_id": "a", "score": 0.8, "bbox": (0, 0, 2, 2)}],
        [{"image_id": "a", "bbox": (0, 0, 2, 2)}])
    elapsed = time.time() - t0
    ok = mismatches == 0 and tp_first == 1.0 and fp_first == 0.5 and elapsed < 60
    report(3, ok, f"{mismatches}/1000 mismatches, AP(TP)={tp_first}, AP(FP,TP)={fp_first} "
           f"({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# criterion 4: identity interventions are bitwise no-ops (50-image fixture)
# -------------------------------------------------------------------------

@pytest.fixture(scope="session")
def small_fixture():
    records = scenegen.generate_dataset(50, 64, seed=77, size_range=(12, 28),
                                        bias=scenegen.BiasSpec.concentrated(3, 4, 0.85))
    cfg = detector.ModelConfig(pooling_variant="mask", image_size=64,
                               channels=(8, 16, 24, 24))
    # enough training that the baseline mAP is non-trivial, so the bitwise
    # identity checks compare real detections rather than empty reports
    ckpt = detector.train(records, cfg, nn.OptimizerConfig(), iterations=800,
                          batch_size=8, seed=1, log_every=0)
    return records, ckpt


def test_criterion_4_identity_interventions(small_fixture):
    t0 = time.time()
    records, ckpt = small_fixture
    names = list(scenegen.DEFAULT_CLASSES)
    model = detector.model_from_checkpoint(ckpt)
    base = experiments.evaluate_records(model, records, names).map50

    sweep = experiments.run_bg_activation_sweep(ckpt, records, experiments.SweepSpec((1.0,)))
    sweep_ok = sweep.rows[0].map50 == base

    self_swapped = [scenegen.composite_random_bg(r, [r.image], seed=0) for r in records]
    self_ok = experiments.evaluate_records(model, self_swapped, names).map50 == base

    ablation = experiments.run_boundary_ablation(ckpt, records, factors=())
    abl_ok = len(ablation.rows) == 1 and ablation.rows[0].map50 == base

    elapsed = time.time() - t0
    report(4, sweep_ok and self_ok and abl_ok and elapsed < 120,
           f"baseline {base:.3f}: w=1 sweep {'=' if sweep_ok else '!='}, "
           f"self-BG {'=' if self_ok else '!='}, empty ablation {'=' if abl_ok else '!='} "
           f"({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# criterion 8: hierarchical F1 unit fixtures
# -------------------------------------------------------------------------

def test_criterion_8_hierarchical_f1_fixtures():
    tree = metrics.ClassHierarchy({"root": None, "vehicle": "root",
                                   "car": "vehicle", "truck": "vehicle"})
    pair = metrics.hierarchical_f1(
        {"a": [{"image_id": "a", "class_id": 0, "score": 0.9, "bbox": (0, 0, 4, 4)}]},
        {"a": [{"image_id": "a", "class_id": 1, "bbox": (0, 0, 4, 4)}]},
        tree, class_names=["car", "truck"])
    half_ok = pair["truck"] == (0.5, 0.5, 0.5)

    perfect = metrics.hierarchical_f1(
        {"a": [{"image_id": "a", "class_id": 0, "score": 0.9, "bbox": (0, 0, 4, 4)},
               {"image_id": "a", "class_id": 1, "score": 0.9, "bbox": (8, 8, 12, 12)}]},
        {"a": [{"image_id": "a", "class_id": 0, "bbox": (0, 0, 4, 4)},
               {"image_id": "a", "class_id": 1, "bbox": (8, 8, 12, 12)}]},
        tree, class_names=["car", "truck"])
    perfect_ok = all(v == (1.0, 1.0, 1.0) for v in perfect.values())

    table = experiments.render_diff_table(
        experiments.diff_report({"car": 0.4}, {"car": 0.5, "truck": 0.7}))
    dash_ok = any("-" in line.split()[1:] and "truck" in line for line in table.splitlines())

    report(8, half_ok and perfect_ok and dash_ok,
           f"sibling pair hF=0.5 {half_ok}, perfect hF=1.0 {perfect_ok}, dashes {dash_ok}")


# -------------------------------------------------------------------------
# criteria 5-7: the 3-seed directional study at default desk scale
# -------------------------------------------------------------------------

@pytest.fixture(scope="session")
def study(tmp_path_factory):
    return experiments.run_study(experiments.StudySpec(), tmp_path_factory.mktemp("study"))


@pytest.mark.slow
def test_criterion_5_context_bias_direction(study):
    summary, seconds = study
    wins = summary["mask_drops_less"]
    details = [f"{variant}-s{seed}: base {row[variant]['in_domain']:.1f} "
               f"drop {row[variant]['drop']:.1f}"
               for seed, row in summary["seeds"].items() for variant in ("max", "mask")]
    elapsed = sum(t for k, t in seconds.items() if k.startswith(("eval-", "random_bg-"))) / 60
    report(5, wins >= 2, f"drop(mask) < drop(max) in {wins}/{len(summary['seeds'])} seeds "
           f"[{'; '.join(details)}] ({elapsed:.1f} min eval)")


@pytest.mark.slow
def test_criterion_6_perturbation_robustness(study):
    summary, seconds = study
    wins = summary["mask_sweep_diff_leq"]
    details = [f"s{seed}: mask {row['mask']['sweep_diff']:.1f} "
               f"vs max {row['max']['sweep_diff']:.1f}" for seed, row in summary["seeds"].items()]
    elapsed = sum(t for k, t in seconds.items() if k.startswith("sweep-")) / 60
    ok = wins >= 2 and elapsed < 15
    report(6, ok, f"Diff(mask) <= Diff(max) in {wins}/{len(summary['seeds'])} seeds "
           f"[{'; '.join(details)}] ({elapsed:.1f} min)")


@pytest.mark.slow
def test_criterion_7_boundary_ablation_monotone(study):
    summary, seconds = study
    by_factor = summary["seeds"]["0"]["ablation"]
    base = by_factor["baseline"]
    slack = 1.0
    dilate_ok = (by_factor["1.2"] <= by_factor["1.1"] + slack
                 and by_factor["1.1"] <= base + slack)
    erode_ok = (by_factor["0.8"] <= by_factor["0.9"] + slack
                and by_factor["0.9"] <= base + slack)
    elapsed = seconds["ablation-mask-seed0"] / 60
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in by_factor.items())
    report(7, dilate_ok and erode_ok and elapsed < 10, f"{detail} ({elapsed:.1f} min)")


# -------------------------------------------------------------------------
# criterion 9: full-pipeline determinism through the CLI
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_pipeline_determinism(tmp_path):
    t0 = time.time()

    def run(tag):
        root = tmp_path / tag
        root.mkdir()
        data = root / "data"
        cfgs = {
            "gen": {"schema": 1, "n_images": 40, "image_size": 64,
                    "size_range": [12, 28], "seed": 9, "out": str(data)},
            "train": {"schema": 1, "dataset": str(data),
                      "model": {"pooling_variant": "mask", "image_size": 64,
                                "channels": [8, 16, 24, 24]},
                      "iterations": 150, "batch_size": 8, "seed": 9,
                      "out": str(root / "train")},
            "eval": {"schema": 1, "dataset": str(data),
                     "checkpoint": str(root / "train" / "checkpoint.mplb"),
                     "out": str(root / "eval")},
            "perturb": {"schema": 1, "dataset": str(data),
                        "checkpoint": str(root / "train" / "checkpoint.mplb"),
                        "out": str(root / "perturb")},
        }
        for command, cfg in cfgs.items():
            path = root / f"{command}.json"
            path.write_text(json.dumps(cfg))
            assert cli.main([command, "--config", str(path), "--threads", "1"]) == 0
        return root

    a, b = run("a"), run("b")
    same = True
    for rel in ("train/checkpoint.mplb", "eval/eval.json", "eval/detections.json",
                "perturb/sweep.json", "perturb/sweep.csv"):
        same &= (a / rel).read_bytes() == (b / rel).read_bytes()
    elapsed = (time.time() - t0) / 60
    report(9, same, f"gen+train+eval+perturb repeated bitwise-identical: {same} "
           f"({elapsed:.1f} min)")
