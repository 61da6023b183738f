#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train|sweep|swap --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Prints the machine and environment, every metric by
name and unit and every failed check, then, as the last line of standard
output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced round plus the tracing overhead, and writes the spans
to ``.bench_out/spans-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

# one BLAS thread: the workloads are single-process and closed-loop, and on a
# small shared box a second thread adds noise but no speed (step p50 was the
# same with one or two threads).  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".bench_out")
BUILD_DIR = Path(".bench_build") / "perfbench"  # cached reference checkpoints


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "sweep", "swap"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import maskpool_lab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "maskpool_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {src}/maskpool_lab; "
                         "run from the root of a maskpool-lab checkout")
    sys.path.insert(0, str(src))
    import maskpool_lab
    if Path(maskpool_lab.__file__).resolve().parent != (src / "maskpool_lab").resolve():
        raise SystemExit(f"error: imported maskpool_lab from {maskpool_lab.__file__}, not {src}")


def blas_threads():
    import ctypes
    import glob

    import numpy as np
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    run, values, tracer = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace),
                                            workloads.Scale(), OUT_DIR, BUILD_DIR)
    units = ({n: u for n, u, _ in workloads.per_layer_names()} if args.trace
             else dict(workloads.END_TO_END))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    ops = run.ops
    if run.build_s:
        print(f"build: trained the reference checkpoints in {run.build_s:.3f} s (not set-up time)")
    print(f"workload {args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"set-up inputs {['%.3f' % s for s in run.gen_s]} s, canaries and references {run.ref_s:.3f} s")
    print(f"step samples {{{', '.join(f'{v}: {len(s)}' for v, s in run.clock.samples.items())}}}, "
          f"eval {run.eval_images} images in {run.eval_s:.3f} s")
    print(f"ops: {ops.attempted} library calls attempted by the workload, {ops.failed} failed "
          f"(a failed check counts as a failed call)")
    if ops.probe:
        print(f"probe (counted in ops_ok_frac only): {ops.probe[2]}")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    for name in run.digests.mismatches():
        print(f"digest mismatch: {name} "
              f"(got {run.digests.first.get(name)}, reference {run.digests.reference.get(name)})")
    cal = run.calibration
    print("calibration kernel median ms: " + ", ".join(
        f"{phase} {1e3 * statistics.median(v):.3f} ({len(v)})" for phase, v in sorted(cal.samples.items()))
        + f"; nominal {1e3 * cal.NOMINAL_S:.3f}")
    raw = {} if args.trace else workloads.end_to_end_values(run, scaled=False)
    for name, m in metrics.items():
        unscaled = f"  (raw {raw[name]:.6g})" if raw.get(name, m["value"]) != m["value"] else ""
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}{unscaled}")
    if tracer is not None:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"spans: {len(tracer.spans)} written to {path}")

    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
