"""Importing ``maskpool_lab`` pins glibc's mmap and trim thresholds, so warm
training steps reuse heap pages instead of faulting their temporaries in again.

Each variant runs in a fresh interpreter in the benchmark's ``train`` order:
train, evaluate, train again.  A ``log_every=1`` handler reads the process's
minor page faults after every step.  Without the pin, which large arrays the
evaluation freed decides whether the second training's im2col columns and
pooling planes come back as fresh pages: the avg variant faulted on
several warm steps, 500-2,700 faults each.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc")

SRC = Path(__file__).resolve().parents[1] / "src"
WARM_FAULTS = 256   # pinned: at most 123 per warm step; every array freshly mapped: about 12,000

CHILD = """
import json, logging, resource, sys
from maskpool_lab import detector, experiments, nn, scenegen

faults = []
class Faults(logging.Handler):
    def emit(self, record):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
log = logging.getLogger(detector.__name__)
log.setLevel(logging.INFO)
log.propagate = False
log.addHandler(Faults())
train = scenegen.generate_dataset(48, 128, seed=0)
val = scenegen.generate_dataset(32, 128, seed=1)
cfg = detector.ModelConfig(pooling_variant=sys.argv[1])
ckpt = detector.train(train, cfg, nn.OptimizerConfig(), 16, seed=0, log_every=1)
experiments.evaluate_records(detector.model_from_checkpoint(ckpt), val, list(scenegen.DEFAULT_CLASSES))
faults.clear()
detector.train(train, cfg, nn.OptimizerConfig(), 16, seed=0, log_every=1)
print(json.dumps([b - a for a, b in zip(faults, faults[1:])]))
"""


def warm_step_faults(variants, **env):
    """{variant: minor faults of each step after the second} of the second training,
    one child per variant, run side by side."""
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    path = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))
    env = {**base, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", **env}
    procs = {v: subprocess.Popen([sys.executable, "-c", CHILD, v], env=env, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE) for v in variants}
    out = {}
    for v, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        out[v] = json.loads(stdout)[2:]   # step it's faults are entry it - 1; keep steps 3-15
    return out


def test_warm_steps_do_not_fault_after_an_evaluation():
    faults = warm_step_faults(("max", "avg", "mask"))
    assert all(len(f) == 13 for f in faults.values()), str(faults)
    assert all(max(f) <= WARM_FAULTS for f in faults.values()), str(faults)


def test_allocator_set_by_the_environment_is_left_alone():
    # every array above 128 KiB is a fresh mmap, so every warm step faults again
    (faults,) = warm_step_faults(("max",), MALLOC_MMAP_THRESHOLD_="131072").values()
    assert min(faults) > WARM_FAULTS, faults
