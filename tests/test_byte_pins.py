"""sha256 pins of the artifacts of one small fixed run, all through the CLI: gen,
a 60-step mask training at 64 px, eval, a two-weight activation sweep at the
pooling slot and at every stage, a boundary ablation, and a 60-step mask
training with the pooling slot after stage1 plus its eval.

Any change to training, inference, decode, NMS or scoring that moves a bit
moves one of these digests.  Between them the runs read mask levels at
strides 2, 4 and 8.  They were recorded with numpy 2.4 and OpenBLAS on
x86-64; a BLAS that rounds its sums differently needs them re-recorded, as
does a change that alters bits on purpose.
"""

import hashlib
import json

import pytest

from maskpool_lab import cli

PINS = {
    "train/checkpoint.mplb": "a685387426bbf4ed257210e3202a0d62123eeca29d38fc7e95795b6b580b9b2d",
    "eval/eval.json": "01feb1a0f00f2f8ac8ca07438e958f014e8a375a0ba92539668f0d4a0e35e950",
    "eval/detections.json": "d3ca9f4d0c15398cce10afcf809446899066594f64e42e9d335277fe070c3296",
    "sweep/sweep.json": "32f46d30135e97f588f0f590d3d033778152d666843778379b72bc1899526c59",
    "sweep/sweep.csv": "26fbc1fd65e17bd324e0add4a39cfe6021d03b3413407727ad5547342cf4c124",
}
MASK_INPUT_PINS = {
    "sweep_all/sweep.json": "033f51f00c565482c226c7649e876020f18af777f6f0cc69a0780432c1b675db",
    "sweep_all/sweep.csv": "a730e15185c910cf71b7f6c6661c126ae28535ffc0c37bbb2d95b5664c8b86a0",
    "ablate/ablation.json": "afe54f37381759b8c053afdb35095386b698e54b827df82cc74d991850d0a459",
    "ablate/ablation.csv": "7b4bbd09d902e8f83ea59d2f4245c7bdf944347ea84d0165d21542a686e548e3",
}
BLOCK1_PINS = {
    "train_block1/checkpoint.mplb": "cf1603f242c5742d98351a51d6af37bccb9831486dbc53089a6be411faf192f6",
    "eval_block1/eval.json": "a670b10a6631a3304b9fa705bf8d801c7c8fcc56fce4ca9b8cae4bf543456a12",
    "eval_block1/detections.json": "70d5738f63fb7d1bf903586fc3da25b8b505c9fd092e9117db9e0bf6efc35f90",
}
MODEL = {"pooling_variant": "mask", "image_size": 64, "channels": [8, 16, 24, 24]}


def run(root, command, **cfg):
    path = root / f"{command}-{cfg['out'].rsplit('/', 1)[-1]}.json"
    path.write_text(json.dumps({"schema": 1, **cfg}))
    assert cli.main([command, "--config", str(path)]) == 0


def digests(root, pins):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in pins}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The generated dataset and the post_stem mask checkpoint; returns the run root."""
    root = tmp_path_factory.mktemp("pins")
    run(root, "gen", n_images=8, image_size=64, size_range=[12, 28], seed=5, out=str(root / "data"))
    run(root, "train", dataset=str(root / "data"), iterations=60, batch_size=8, seed=3,
        model=MODEL, out=str(root / "train"))
    return root


def test_fixed_run_artifacts_match_pins(trained):
    data, ckpt = str(trained / "data"), str(trained / "train" / "checkpoint.mplb")
    run(trained, "eval", dataset=data, checkpoint=ckpt, out=str(trained / "eval"))
    run(trained, "perturb", dataset=data, checkpoint=ckpt, weights=[0.5, 2.0],
        out=str(trained / "sweep"))
    assert len(json.loads((trained / "eval" / "detections.json").read_text())) > 0
    assert digests(trained, PINS) == PINS


def test_every_stage_sweep_and_ablation_match_pins(trained):
    """The sweep reads mask levels at strides 2, 4 and 8; the ablation feeds
    dilated and eroded masks to the pooling slot."""
    data, ckpt = str(trained / "data"), str(trained / "train" / "checkpoint.mplb")
    run(trained, "perturb", dataset=data, checkpoint=ckpt, weights=[0.5, 2.0],
        perturb_all_stages=True, out=str(trained / "sweep_all"))
    run(trained, "ablate", dataset=data, checkpoint=ckpt, out=str(trained / "ablate"))
    assert digests(trained, MASK_INPUT_PINS) == MASK_INPUT_PINS


def test_post_block1_training_matches_pins(trained):
    """The pooling slot after stage1 pools stage1's features; stage1 keeps
    stride 2, so the slot still reads the stride-2 mask level."""
    data = str(trained / "data")
    run(trained, "train", dataset=data, iterations=60, batch_size=8, seed=3,
        model={**MODEL, "pool_placement": "post_block1"}, out=str(trained / "train_block1"))
    run(trained, "eval", dataset=data, checkpoint=str(trained / "train_block1" / "checkpoint.mplb"),
        out=str(trained / "eval_block1"))
    assert len(json.loads((trained / "eval_block1" / "detections.json").read_text())) > 0
    assert digests(trained, BLOCK1_PINS) == BLOCK1_PINS
