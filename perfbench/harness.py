"""Timing, tracing and the record -> .pdt -> report round shared by the
three workloads.

Every figure is taken from outside the program, around calls into its
public API. The same code runs with tracing on and off: a disabled
tracer keeps no spans, so the untraced run measures the end-to-end
figures and the traced run splits them into layers.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import time
from dataclasses import dataclass, field

from asyncscope import (
    HeuristicConfig,
    ProfilerError,
    build_lineage,
    build_report,
    compute_stats,
    correlate,
    detect_anomalies,
    encode_session,
    filter_ui_triggered,
    group_by_context,
    parse_trace,
    render_json,
    render_text,
)
from asyncscope.cli import main as cli_main

perf_ns = time.perf_counter_ns


# -- tracing -------------------------------------------------------------------


_NULL_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, perf_ns(), 0, t.open[-1] if t.open else -1])
        t.open.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_ns()
        t.open.pop()
        return False


class Tracer:
    """Spans (name, start, end, parent) kept in memory for one workload run.

    Spans are only recorded from the benchmark's own thread; every span of
    a run carries the run's ``run_id`` when written out.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        self.spans: list[list] = []
        self.open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a finished span under the innermost open one."""
        self.spans.append([name, start_ns, end_ns, self.open[-1] if self.open else -1])

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, i, parent, name, start, end]) + "\n")


def layer_times(spans: list[list], first: int) -> dict[tuple[str, str], list[int]]:
    """Total and self nanoseconds per (root span, span name) for the spans
    recorded from index ``first`` on. Self time is a span's duration less
    that of its direct children."""
    root: dict[int, str] = {}
    child_ns: dict[int, int] = {}
    for i in range(first, len(spans)):
        name, start, end, parent = spans[i]
        root[i] = name if parent < first else root[parent]
        if parent >= first:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    out: dict[tuple[str, str], list[int]] = {}
    for i in range(first, len(spans)):
        name, start, end, _ = spans[i]
        acc = out.setdefault((root[i], name), [0, 0])
        acc[0] += end - start
        acc[1] += end - start - child_ns.get(i, 0)
    return out


class SubmitTimer:
    """Times every submission call of one pass on the submitting thread.

    A submission that raises a profiler error is counted as failed and
    returns None, so the workload carries on.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.samples: list[int] = []
        self.keys: list = []
        self.failed = 0
        self._tracer = tracer if tracer.enabled else None

    def __call__(self, fn, *args, **kwargs):
        t0 = perf_ns()
        try:
            key = fn(*args, **kwargs)
        except ProfilerError:
            key = None
            self.failed += 1
        t1 = perf_ns()
        self.samples.append(t1 - t0)
        self.keys.append(key)
        if self._tracer is not None:
            self._tracer.add("runtime.submit", t0, t1)
        return key


class GcCounter:
    """Counts garbage collections through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.count = 0

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self.count += 1

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        return False


# -- one round -------------------------------------------------------------------


@dataclass
class Recorded:
    """What one record pass leaves: the drained sessions and its ledger."""

    sessions: list
    tasks: int
    timer: SubmitTimer
    extra: dict = field(default_factory=dict)
    step: "Step | None" = None  # the pass's timed step, set by run_round


# The calibration loops' best times on the machine where README.md's
# reference figures were taken, undisturbed. Every timed step is scaled to
# that speed, so that other load on a shared machine moves the figures less.
CALIBRATION_REF_NS = 1_500_000
OBJECT_REF_NS = 1_360_000


def _calibration_loop() -> int:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


class _Cell:
    __slots__ = ("key", "items")

    def __init__(self, key, items) -> None:
        self.key = key
        self.items = items


def _object_loop() -> int:
    cells = {}
    for i in range(4000):
        cells[i] = _Cell(i, [i])
    return len(cells)


def _best_of_three(loop) -> int:
    best = None
    for _ in range(3):
        t0 = perf_ns()
        loop()
        elapsed = perf_ns() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best


def machine_ns() -> float:
    """How fast the interpreter runs on this machine right now, as the time
    the arithmetic loop would take: the geometric mean of the best of three
    runs of an arithmetic loop and of an allocating loop, the latter
    rescaled by the ratio of their reference times.

    A busy host slows this allocation-heavy program more than the
    arithmetic loop and less than the allocating one (README.md, "Why two
    loops"). The cyclic collector is off while the loops run, so the heap
    they meet does not matter.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        arithmetic = _best_of_three(_calibration_loop)
        objects = _best_of_three(_object_loop)
    finally:
        if enabled:
            gc.enable()
    return math.sqrt(arithmetic * objects * CALIBRATION_REF_NS / OBJECT_REF_NS)


class Step:
    """Wall time of one step of a round, started from a collected heap, with
    the machine's speed measured just before and just after it."""

    def __enter__(self):
        gc.collect()
        self._before = machine_ns()
        self._t0 = perf_ns()
        return self

    def __exit__(self, *exc):
        self.raw_ns = perf_ns() - self._t0
        after = machine_ns()
        self.scale = 2 * CALIBRATION_REF_NS / (self._before + after)
        self.ns = self.raw_ns * self.scale
        return False


@dataclass
class Round:
    on: Recorded  # the last on pass, which is exported and analysed
    pairs: list[tuple[Recorded, Recorded]]  # every (off, on) pair of the round
    pass_problems: list[tuple[str, int]]  # from ``workload.check_pass``
    steps: dict  # "record.off", "record.on" (last pair), "export", "analyze" -> Step
    blobs: list[bytes]
    report_bytes: bytes
    gc_record: int


def run_round(workload, plan, out_dir: str, tracer: Tracer, gcs: GcCounter,
              pairs: int = 1) -> Round:
    """Record ``pairs`` times with events off, then on, so that passes
    alternate through the run and an on-pass trace is never alive while
    another pass runs; then encode and write the last on-pass trace(s) and
    analyze them through the CLI. Each pass is checked as soon as it ends,
    and only the last on-pass keeps its sessions."""
    steps = {}
    done = []
    problems = []
    for _ in range(pairs):
        recs = {}
        for emit in (False, True):
            name = "record.on" if emit else "record.off"
            timer = SubmitTimer(tracer)
            with Step() as steps[name], tracer.span(name):
                gc0 = gcs.count
                recs[emit] = workload.record(plan, emit, timer, tracer)
                gc_record = gcs.count - gc0
            recs[emit].step = steps[name]
            problems += workload.check_pass(plan, recs[emit], emit)
        done.append((recs[False], recs[True]))
        if len(done) > 1:
            done[-2][1].sessions = []
    on = recs[True]

    paths = [os.path.join(out_dir, f"s{i:05d}.pdt") for i in range(len(on.sessions))]
    with Step() as steps["export"], tracer.span("export"):
        blobs = []
        for session, path in zip(on.sessions, paths):
            with tracer.span("tracelog.encode"):
                data = encode_session(session)
            with tracer.span("tracelog.write"):
                with open(path, "wb") as fh:
                    fh.write(data)
            blobs.append(data)
    report_path = os.path.join(out_dir, "report.json")
    with Step() as steps["analyze"], tracer.span("analyze"):
        status = cli_main(["analyze", *paths, "--format", "json", "--out", report_path])
    if status != 0:
        raise RuntimeError(f"asyncscope analyze exited with {status}")
    with open(report_path, "rb") as fh:
        report_bytes = fh.read()
    return Round(on, done, problems, steps, blobs, report_bytes, gc_record)


def decompose(blobs: list[bytes], tracer: Tracer, gcs: GcCounter) -> dict:
    """Call each analysis layer separately on the round's traces, under its
    own span, so that ``build_report`` self time can be derived."""
    cfg = HeuristicConfig()
    counts = {"kept": 0, "groups": 0, "warnings": 0}
    gc0 = gcs.count
    with tracer.span("tracelog.parse"):
        sessions = [parse_trace(data) for data in blobs]
    counts["gc_parse"] = gcs.count - gc0
    for session in sessions:
        if not session.events:
            continue
        with tracer.span("trace_model.correlate"):
            records = correlate(session.events)
        with tracer.span("analyzer.lineage"):
            lineage = build_lineage(session.events)
        with tracer.span("analyzer.filter"):
            kept = filter_ui_triggered(records, lineage)
        with tracer.span("analyzer.group"):
            groups = group_by_context(kept)
        with tracer.span("analyzer.stats"):
            stats = [compute_stats(group) for group in groups.values()]
        with tracer.span("analyzer.detect"):
            warnings = [detect_anomalies(s, cfg) for s in stats]
        counts["kept"] += len(kept)
        counts["groups"] += len(groups)
        counts["warnings"] += sum(len(w) for w in warnings)
    with tracer.span("report.build"):
        report = build_report(sessions, cfg=cfg)
    with tracer.span("report.render_text"):
        render_text(report)
    with tracer.span("report.render_json"):
        render_json(report)
    counts["rows"] = len(report.rows)
    return counts


# -- figures ---------------------------------------------------------------------


def percentile(ordered: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of y on x; 0.0 when x takes a single value."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in points) / sxx
