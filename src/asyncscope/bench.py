"""Instrumentation overhead microbenchmark.

Times the same pool workload — trivial no-op tasks — once with event
emission enabled and once with it disabled, on the real monotonic
clock. The reported overhead is the relative difference of the median
wall times.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .clock import RealMonotonicClock
from .runtime import ProfilerSession, Task

DEFAULT_TASKS = 100_000
DEFAULT_RUNS = 5
DEFAULT_WORKERS = 4


@dataclass(frozen=True)
class OverheadResult:
    n_tasks: int
    runs: int
    instrumented_s: tuple[float, ...]
    baseline_s: tuple[float, ...]

    @property
    def median_instrumented_s(self) -> float:
        return statistics.median(self.instrumented_s)

    @property
    def median_baseline_s(self) -> float:
        return statistics.median(self.baseline_s)

    @property
    def overhead(self) -> float:
        """Relative wall-time overhead of emission, e.g. 0.05 for 5%."""
        base = self.median_baseline_s
        return (self.median_instrumented_s - base) / base

    @property
    def instrumented_us_per_task(self) -> float:
        return self.median_instrumented_s * 1e6 / self.n_tasks

    @property
    def baseline_us_per_task(self) -> float:
        return self.median_baseline_s * 1e6 / self.n_tasks

    @property
    def added_us_per_task(self) -> float:
        """What emission adds to each task, in µs: unlike ``overhead``, it
        does not move with the baseline's own speed."""
        return self.instrumented_us_per_task - self.baseline_us_per_task


def _noop(token) -> None:
    pass


def _timed_run(n_tasks: int, workers: int, emit_events: bool) -> float:
    session = ProfilerSession(
        clock=RealMonotonicClock(),
        config_label="overhead-bench",
        session_id="overhead",
        emit_events=emit_events,
        drain_timeout_s=300.0,
    )
    pool = session.pool_executor(core_size=workers, max_size=workers)
    task = Task("noop", body=_noop)
    t0 = time.perf_counter()
    for _ in range(n_tasks):
        pool.submit(task)
    session.drain()
    return time.perf_counter() - t0


def run_overhead_benchmark(
    n_tasks: int = DEFAULT_TASKS,
    runs: int = DEFAULT_RUNS,
    workers: int = DEFAULT_WORKERS,
) -> OverheadResult:
    """Interleave instrumented and baseline runs to cancel machine drift."""
    instrumented = []
    baseline = []
    for _ in range(runs):
        instrumented.append(_timed_run(n_tasks, workers, emit_events=True))
        baseline.append(_timed_run(n_tasks, workers, emit_events=False))
    return OverheadResult(
        n_tasks=n_tasks,
        runs=runs,
        instrumented_s=tuple(instrumented),
        baseline_s=tuple(baseline),
    )
