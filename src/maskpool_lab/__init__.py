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

from . import detector, experiments, maskpool, metrics, nn, scenegen
from .errors import ConfigurationError, NumericError, ParseError, TrainingDiverged

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "NumericError",
    "ParseError",
    "TrainingDiverged",
    "detector",
    "experiments",
    "maskpool",
    "metrics",
    "nn",
    "scenegen",
]
