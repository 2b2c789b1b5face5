#!/usr/bin/env python3
"""Measure instrumentation overhead on the real clock and print a table."""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from asyncscope.bench import (  # noqa: E402
    DEFAULT_RUNS,
    DEFAULT_TASKS,
    DEFAULT_WORKERS,
    run_overhead_benchmark,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=DEFAULT_TASKS)
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    args = parser.parse_args()

    result = run_overhead_benchmark(args.tasks, args.runs, args.workers)
    print(f"tasks per run:      {result.n_tasks}")
    print(f"runs:               {result.runs}")
    for label, times in (
        ("instrumented", result.instrumented_s),
        ("baseline", result.baseline_s),
    ):
        rendered = ", ".join(f"{t:.3f}s" for t in times)
        print(f"{label + ':':<19} {rendered}")
    print(f"median instrumented: {result.median_instrumented_s:.3f}s")
    print(f"median baseline:     {result.median_baseline_s:.3f}s")
    print(f"overhead:            {result.overhead * 100:.2f}%")


if __name__ == "__main__":
    main()
