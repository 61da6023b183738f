#!/usr/bin/env python3
"""Compare the working tree with a parent revision on the benchmark's end-to-end metrics.

Both trees are exported with ``git archive`` into a scratch directory (the
working tree as ``git stash create`` records it: committed and uncommitted
edits of tracked files, and new files once they are staged).  Each workload
then runs ``perfbench/run.py --trace 0`` in N pairs of parent and change runs
on fresh seeds, alternating which side runs first.  A tree's first ``sweep``
or ``swap`` run trains the reference checkpoints inside the measured process,
so one warm-up run per tree precedes those pairs and is discarded.

For every end-to-end metric of ``BENCHMARK.json`` it prints both medians and
quartile ranges, the pairs the change won (ties count for neither side) and a
verdict:
  gain        at least 10 pairs ran, the change won at least 9 in 10 of
              them, the medians differ by more than the parent's quartile
              range and no more change runs than parent runs were incorrect;
  too few pairs
              all of that but the pair count;
  WORSE       the change's median is worse than the parent's by more than
              the metric's bound (a fraction of the parent median);
  unresolved  the parent's quartile range is wider than the bound, and not
              every change run beat every parent run;
  within      none of these: no worse than the bound.
Raw values go to ``<scratch>/pairs.json``, rewritten after every run.  A run
that exits non-zero stops the script with exit status 1, after printing its
workload, side, seed, exit code and the end of its stderr.

Usage:
    python3 scripts/bench_pairs.py HEAD~1 --seed 6101 --pairs 10 --scratch /tmp/pairs
    python3 scripts/bench_pairs.py main --seed 7101 --workloads train --scratch /tmp/p
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILDS_REFERENCES = ("sweep", "swap")


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """{metric: value} of one --trace 0 run, plus "correct".  The side is the tree's
    directory name; a failed run raises SystemExit(1)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "".join(f"  {line}\n" for line in proc.stderr.splitlines()[-15:])
        print(f"{workload} {tree.name} seed {seed}: perfbench/run.py exited {proc.returncode}\n{tail}",
              end="", file=sys.stderr)
        raise SystemExit(1)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], **{k: m["value"] for k, m in result["metrics"].items()}}


def verdict(metric: dict, parent: list, change: list, more_incorrect: bool) -> tuple:
    """(wins, verdict) of the change against the parent, by the rules in the module docstring;
    ``more_incorrect`` when more change runs than parent runs were incorrect."""
    sign = 1 if metric["better"] == "lower" else -1   # sign * (change - parent) < 0 is better
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, mid, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = sign * (mid - statistics.median(change))  # > 0 when the change's median is better
    bound = metric["bound"] * abs(mid)
    if wins >= 0.9 * len(parent) and gain > q3 - q1 and not more_incorrect:
        return wins, "gain" if len(parent) >= 10 else "too few pairs"
    if -gain > bound:
        return wins, "WORSE"
    if q3 - q1 > bound and not max(sign * c for c in change) < min(sign * p for p in parent):
        return wins, "unresolved"
    return wins, "within"


def summary(values: list) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):10.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare the working tree with")
    parser.add_argument("--seed", type=int, required=True, help="first seed; pair i runs seed + i")
    parser.add_argument("--pairs", type=int, default=10, help="a gain verdict needs at least 10")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]],
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--scratch", type=Path, required=True, help="new directory for the two trees")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    trees = {"parent": export(git("rev-parse", args.parent), args.scratch / "parent"),
             "change": export(git("stash", "create") or "HEAD", args.scratch / "change")}
    results, warm = {}, set()
    for workload in args.workloads:
        runs = results[workload] = {"parent": [], "change": []}
        for side, tree in trees.items():
            if workload in BUILDS_REFERENCES and side not in warm:
                run(tree, workload, args.seed - 1, bench["run_seconds"])  # builds the reference checkpoints
                warm.add(side)
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(run(trees[side], workload, args.seed + i, bench["run_seconds"]))
                (args.scratch / "pairs.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
                print(f"{workload} seed {args.seed + i} {side}: "
                      + " ".join(f"{m['name']}={runs[side][-1][m['name']]:.4g}" for m in bench["end_to_end"]),
                      flush=True)

    for workload, runs in results.items():
        incorrect = {side: sum(not r["correct"] for r in runs[side]) for side in runs}
        print(f"\n{workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
              f"--seconds {bench['run_seconds']:g}; incorrect runs: parent {incorrect['parent']}, "
              f"change {incorrect['change']}")
        print(f"{'metric':<20} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}   wins  verdict")
        for metric in bench["end_to_end"]:
            parent = [r[metric["name"]] for r in runs["parent"]]
            change = [r[metric["name"]] for r in runs["change"]]
            wins, word = verdict(metric, parent, change, incorrect["change"] > incorrect["parent"])
            print(f"{metric['name']:<20} {summary(parent):>30} {summary(change):>30}"
                  f"  {wins:>2}/{args.pairs}  {word}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
