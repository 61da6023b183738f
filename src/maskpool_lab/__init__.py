"""Desk-scale laboratory for mask-guided pooling and context-bias interventions.

Submodules:
  nn          -- float32 (n,c,h,w) tensor ops with hand-written backwards
  maskpool    -- boundary-aware mask pooling, per-stride mask stacks, interventions
  scenegen    -- biased synthetic scenes, PPM/PGM datasets, BG compositing
  detector    -- tiny anchor-free detector with a swappable pooling slot
  metrics     -- IoU, AP@0.5, mAP50, hierarchical F1
  experiments -- intervention runners and report shapes
  cli         -- the `maskpool-lab` command line
"""

import ctypes
import os

# glibc moves its mmap and trim thresholds with each large free, so a training step's
# multi-MB temporaries can be unmapped or trimmed and faulted in again by the next step.
# Pin both (setting one stops the moves) unless the environment sets them; no-op without mallopt.
if os.name == "posix" and not ({"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & set(os.environ)
                               or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
    _mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if _mallopt is not None:
        _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        _mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: arrays up to 32 MiB come from the heap
        _mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: keep up to 256 MiB of freed heap

from . import detector, experiments, maskpool, metrics, nn, scenegen  # noqa: E402
from .errors import ConfigurationError, ParseError, TrainingDiverged

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ParseError",
    "TrainingDiverged",
    "detector",
    "experiments",
    "maskpool",
    "metrics",
    "nn",
    "scenegen",
]
