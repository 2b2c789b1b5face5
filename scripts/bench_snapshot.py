#!/usr/bin/env python3
"""Write one point of the benchmark trajectory, ``BENCH_<label>.json``.

Runs ``perfbench/run.py --workload W --seed 1 --seconds 30 --trace 0`` for
each workload that ``BENCHMARK.json`` lists, one after another, then the
real-clock overhead benchmark of acceptance criterion #8
(``asyncscope.bench.run_overhead_benchmark`` at its defaults). The file
records perfbench's environment stamp, each workload's final JSON line,
and the overhead benchmark's medians, in seconds a run and µs a task,
the µs that emission adds to a task, and the ratio. Run from anywhere;
it writes into the repository root::

    python3 scripts/bench_snapshot.py 7      # writes BENCH_7.json
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "scripts")]

from asyncscope.bench import run_overhead_benchmark  # noqa: E402
from bench_pairs import benchmark_workloads, run_perfbench  # noqa: E402


def run_workload(name: str) -> tuple[dict, dict]:
    """Run one perfbench workload; return its env stamp and final line.

    Exits non-zero, writing nothing, unless perfbench exits 0 with
    ``"correct": true`` on its final line.
    """
    return run_perfbench(ROOT, name, 30, 1, 0)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)

    env = None
    workloads = {}
    for name in benchmark_workloads():
        env, workloads[name] = run_workload(name)
    overhead = run_overhead_benchmark()
    snapshot = {
        "label": args.label,
        "env": env,
        "workloads": workloads,
        "overhead": {
            "n_tasks": overhead.n_tasks,
            "runs": overhead.runs,
            "median_instrumented_s": overhead.median_instrumented_s,
            "median_baseline_s": overhead.median_baseline_s,
            "instrumented_us_per_task": overhead.instrumented_us_per_task,
            "baseline_us_per_task": overhead.baseline_us_per_task,
            "added_us_per_task": overhead.added_us_per_task,
            "ratio": overhead.overhead,
        },
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
