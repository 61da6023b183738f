#!/usr/bin/env python3
"""Multi-seed context-bias study: train max- and mask-pooling detectors on the
biased synthetic dataset, then compare robustness under background swaps,
background activation scaling, and mask-boundary perturbation.

Outputs one JSON/CSV report per (variant, seed, intervention) plus a
summary.json with the per-seed drops and sweep diffs.  The study itself is
``maskpool_lab.experiments.run_study``; this script only parses its flags.

Usage:
    python3 scripts/run_bias_study.py --out runs/bias_study
    python3 scripts/run_bias_study.py --out runs/smoke --train-images 200 \
        --val-images 80 --iterations 400 --seeds 0
"""

import argparse
import logging
from dataclasses import fields

from maskpool_lab.experiments import StudySpec, run_study


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(StudySpec.seeds))
    for f in fields(StudySpec):
        if f.name != "seeds":  # --train-images, ..., --repetitions
            parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                                default=f.default)
    args = vars(parser.parse_args(argv))

    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(message)s")
    out = args.pop("out")
    run_study(StudySpec(**args), out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
