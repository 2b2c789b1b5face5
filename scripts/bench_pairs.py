#!/usr/bin/env python3
"""Compare two checkouts on perfbench workloads in alternating pairs.

Runs ``perfbench/run.py --workload W --seed K --seconds S --trace T`` in
PARENT_DIR and in CHANGE_DIR, N times over, the parent first in the odd
pairs and the change first in the even ones. It prints for each metric
the parent's median and interquartile range, the change's median, their
ratio, and in how many pairs the change read lower, counted apart for
each order, so that a bias of the slot a run takes shows as counts that
disagree. With
``--trace 0``, the default, those are the end-to-end metrics; with
``--trace 1``, the per-layer ones, which show the layer a change moved.
Without ``--workload`` it does so for every workload that this
checkout's ``BENCHMARK.json`` lists, one after another, and prints one
table for each::

    python3 scripts/bench_pairs.py ../parent . --workload deep_mixed --pairs 10 --seconds 30
    python3 scripts/bench_pairs.py ../parent . --pairs 5 --seconds 30
    python3 scripts/bench_pairs.py ../parent . --workload multi_config --pairs 2 --seconds 6 --trace 1

A run whose last line is not a JSON object with ``"correct": true`` stops
the comparison with a non-zero exit.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark_workloads() -> list[str]:
    """The workload names that this checkout's BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [workload["name"] for workload in json.load(f)["workloads"]]


def run_once(checkout: str, workload: str, seconds: float, seed: int,
             trace: int) -> dict:
    """One perfbench run in ``checkout``: its metrics, name -> value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = None
    if proc.returncode != 0 or not isinstance(last, dict) or last.get("correct") is not True:
        sys.exit(f"perfbench {workload} in {checkout} exited {proc.returncode} "
                 f"without \"correct\": true; no comparison made\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in last["metrics"].items()}


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric, for runs paired by index, the parent first in
    pairs 0, 2, 4, ...: the change's lower count with the parent first,
    then with the change first."""
    lines = [f"{'metric':<24} {'parent':>10} {'IQR':>8} {'change':>10} "
             f"{'ratio':>7} {'p-first':>8} {'c-first':>8}"]
    for name in parent[0]:
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        q1, _, q3 = quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
        mid_a, mid_b = median(a), median(b)
        ratio = mid_b / mid_a if mid_a else float("nan")
        lower = [y < x for x, y in zip(a, b)]
        counts = (f"{sum(lower[first::2]):>5}/{len(lower[first::2])}"
                  for first in (0, 1))
        lines.append(f"{name:<24} {mid_a:>10.3f} {q3 - q1:>8.3f} {mid_b:>10.3f} "
                     f"{ratio:>7.3f} {' '.join(counts)}")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload",
                        help="one workload (default: every one in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 pairs traced runs, which print per-layer metrics")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else benchmark_workloads()
    for n, workload in enumerate(workloads):
        parent, change = [], []
        for i in range(args.pairs):
            sides = [(args.parent_dir, parent), (args.change_dir, change)]
            for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
                runs.append(run_once(checkout, workload, args.seconds,
                                     args.seed, args.trace))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr,
                  flush=True)
        if n:
            print()
        traced = ", traced" if args.trace else ""
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s"
              f"{traced}, parent and change first in turn")
        print("\n".join(compare(parent, change)), flush=True)


if __name__ == "__main__":
    main()
