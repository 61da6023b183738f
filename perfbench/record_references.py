#!/usr/bin/env python3
"""Rewrite reference_digests.json from the fixed-seed artifacts of each workload's set-up.

    python3 perfbench/record_references.py

Run from the root of a checkout whose outputs are the accepted reference
(the parent commit, or a commit that re-baselines on purpose and says so).
The digests cover the reference and canary checkpoints and the canary
reports; every seeded artifact is checked against its own first round
instead.  Takes about a minute.
"""

import json
import shutil
import sys
from pathlib import Path

import run as bench


def main() -> int:
    bench.import_library()
    import workloads

    out_dir = Path(".bench_out")
    digests = {}
    for workload in workloads.WORKLOADS:
        workdir = out_dir / f"record-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        run = workloads.Run(workload, 0, workloads.Scale(), workdir, bench.BUILD_DIR,
                            digests=workloads.Digests({}))
        try:
            with run.clock:
                run.setup()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        digests.update({name: run.digests.first[name] for name in run.digests.match})
        for failure in run.ops.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
