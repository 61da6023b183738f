"""sha256 pins of the artifacts of one small fixed run: gen, a 60-step mask
training at 64 px, eval and a two-weight activation sweep, all through the CLI.

Any change to training, inference, decode, NMS or scoring that moves a bit
moves one of these digests.  They were recorded with numpy 2.4 and OpenBLAS
on x86-64; a BLAS that rounds its sums differently needs them re-recorded, as
does a change that alters bits on purpose.
"""

import hashlib
import json

from maskpool_lab import cli

PINS = {
    "train/checkpoint.mplb": "a685387426bbf4ed257210e3202a0d62123eeca29d38fc7e95795b6b580b9b2d",
    "eval/eval.json": "01feb1a0f00f2f8ac8ca07438e958f014e8a375a0ba92539668f0d4a0e35e950",
    "eval/detections.json": "d3ca9f4d0c15398cce10afcf809446899066594f64e42e9d335277fe070c3296",
    "sweep/sweep.json": "32f46d30135e97f588f0f590d3d033778152d666843778379b72bc1899526c59",
    "sweep/sweep.csv": "26fbc1fd65e17bd324e0add4a39cfe6021d03b3413407727ad5547342cf4c124",
}


def run(tmp_path, command, **cfg):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps({"schema": 1, **cfg}))
    assert cli.main([command, "--config", str(path)]) == 0


def test_fixed_run_artifacts_match_pins(tmp_path):
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "train" / "checkpoint.mplb")
    run(tmp_path, "gen", n_images=8, image_size=64, size_range=[12, 28], seed=5, out=data)
    run(tmp_path, "train", dataset=data, iterations=60, batch_size=8, seed=3,
        model={"pooling_variant": "mask", "image_size": 64, "channels": [8, 16, 24, 24]},
        out=str(tmp_path / "train"))
    run(tmp_path, "eval", dataset=data, checkpoint=ckpt, out=str(tmp_path / "eval"))
    run(tmp_path, "perturb", dataset=data, checkpoint=ckpt, weights=[0.5, 2.0],
        out=str(tmp_path / "sweep"))
    assert len(json.loads((tmp_path / "eval" / "detections.json").read_text())) > 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINS}
    assert digests == PINS
