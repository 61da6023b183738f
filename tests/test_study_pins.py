"""sha256 pins of every file the bias-study script writes in one small run:
one seed, 64 train / 16 val images at 64 px, 300 iterations per variant,
a 4-background pool and 2 random-background repetitions (about 10 s).

The run happens in a temporary working directory with a relative ``--out``,
so ``summary.json``'s ``config`` block is the same on every machine.  Any
change to the study's datasets, seeds, training, runners, report files or
summary moves a digest.  They were recorded with numpy 2.4 and OpenBLAS on
x86-64; a BLAS that rounds its sums differently needs them re-recorded.
"""

import hashlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_bias_study.py"
FLAGS = ["--out", "study", "--train-images", "64", "--val-images", "16", "--image-size", "64",
         "--iterations", "300", "--seeds", "0", "--bg-pool", "4", "--repetitions", "2"]

PINS = {
    "ablation-mask-seed0.csv": "b91aa31cfe770e8721e20b74623f7395833ba18fdc0567b6108dfc9236dba8e9",
    "ablation-mask-seed0.json": "b272cf8d614e66335a93aac59501577ccce41dd06f37f07694c7ce1190132ab2",
    "mask-seed0.mplb": "908c2e013c6faa69ac9c9f94aff7dcae7c710e6572df0ff251a1c4f4bb1cab80",
    "max-seed0.mplb": "5a340b17badc0a489c646300e3093974610005e8d842f474fabb5995ecdfea42",
    "random_bg-mask-seed0.csv": "dd0df4cff8c08f24bf44fd786ab1ab2d7e937b5657669a762e2672dd76b19b72",
    "random_bg-mask-seed0.json": "f12822299cc399ab6ca3aa939b53f5096a9f068754f20cd7af0eba4ee3b54aa7",
    "random_bg-max-seed0.csv": "b398702454cd2217a73efa355b0e43a265128d13f0de6571d0eae8f975071bdc",
    "random_bg-max-seed0.json": "e0959d1be4f44706ab1e8bddf18706a74e5ff91fa4bc21ce32806ee7510a46f5",
    "summary.json": "3f16f544478e074b846e399c936a7a179ea63adec981fd61bed9089d9c8b479c",
    "sweep-mask-seed0.csv": "ec8c044542fc8e649cfc01de0041ad7f8bdadd27c3ca9ebb2d75838ca5c40f17",
    "sweep-mask-seed0.json": "0869cc46d863e2b4ca9ba74159f654605a439577951526f4d1f3112547ac71f9",
    "sweep-max-seed0.csv": "44e0de82fd76b8946723b2acf46fc08713ba2895d54b9e08ec8666d108941246",
    "sweep-max-seed0.json": "3dfacff40a6263677b858a87c6de9191e093ff7555d6b008d18eb367ca07508b",
}


def test_script_artifacts_match_pins(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_bias_study", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(tmp_path)
    assert script.main(FLAGS) == 0
    out = tmp_path / "study"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == PINS
