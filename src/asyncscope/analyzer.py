"""Trace analysis: lineage filtering, context grouping, statistics, and
anomaly heuristics with suspiciousness scores.

All functions are pure over immutable inputs. Statistics use population
variance (computed exactly over integer inputs) and the lower-middle
median convention so independent oracles can match them exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from operator import attrgetter, mul

from .trace_model import (
    ExecutionContext,
    Mechanism,
    TaskEvent,
    TaskRecord,
)


class AnalyzerError(Exception):
    pass


class MultipleMainThreads(AnalyzerError):
    pass


class Metric(enum.Enum):
    QUEUING = "queuing"
    LATENCY = "latency"
    INCOMPLETE = "incomplete"


class Heuristic(enum.Enum):
    HIGH_VARIANCE = "HighVariance"
    MAX_MIN_SPREAD = "MaxMinSpread"
    MAX_MEDIAN_SPREAD = "MaxMedianSpread"
    ABSOLUTE_LATENCY = "AbsoluteLatency"
    ANR_SCALE = "AnrScale"
    INCOMPLETE_FRACTION = "IncompleteFraction"


@dataclass(frozen=True)
class HeuristicConfig:
    """Thresholds for the anomaly heuristics.

    The 10s ANR scale is the one externally fixed constant; the rest are
    engineering defaults, overridable via a key=value config file.
    """

    cv_threshold: float = 1.0
    max_min_ratio: float = 10.0
    max_median_ratio: float = 5.0
    abs_latency_warn_ns: int = 200_000_000
    abs_anr_ns: int = 10_000_000_000
    min_samples: int = 3
    incomplete_warn_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "cv_threshold", "max_min_ratio", "max_median_ratio",
            "abs_latency_warn_ns", "abs_anr_ns", "incomplete_warn_fraction",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.min_samples < 2:
            raise ValueError("min_samples must be at least 2")

    @classmethod
    def from_file(cls, path) -> "HeuristicConfig":
        """Load overrides from a flat key=value file; unknown or repeated keys error."""
        parsers = {f.name: type(f.default) for f in fields(cls)}
        overrides = {}
        set_at = {}  # key -> the line that gave it
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or key not in parsers:
                    raise ValueError(f"{path}:{line_no}: bad config line {raw!r}")
                if key in set_at:
                    raise ValueError(
                        f"{path}:{line_no}: {key} given twice (first at line {set_at[key]})")
                set_at[key] = line_no
                try:
                    overrides[key] = parsers[key](value.strip())
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_no}: bad value for {key}: {value.strip()!r}"
                    ) from None
                try:
                    cls(**{key: overrides[key]})  # each field's range alone
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
        return cls(**overrides)


@dataclass(frozen=True)
class LineageSet:
    """Thread ids reachable from the main thread via spawn edges."""

    offspring: frozenset[int]

    def __contains__(self, thread_id: int) -> bool:
        return thread_id in self.offspring


@dataclass(frozen=True)
class MetricStats:
    """Descriptive statistics over one duration metric, in nanoseconds."""

    mean: float
    variance: float  # population
    median: int  # lower-middle convention for even counts
    min: int
    max: int


@dataclass(frozen=True)
class GroupStats:
    """Per-context statistics over queuing times and latencies."""

    context: ExecutionContext
    mechanism: Mechanism
    n_complete: int
    n_incomplete: int
    n_cancelled: int
    queuing: MetricStats | None
    latency: MetricStats | None


@dataclass(frozen=True)
class Warning:
    """One triggered heuristic with its threshold-exceedance score."""

    metric: Metric
    heuristic: Heuristic
    score: float
    evidence: tuple[tuple[str, float], ...] = ()


def build_lineage(events: tuple[TaskEvent, ...] | list[TaskEvent]) -> LineageSet:
    """Transitive closure of spawn edges rooted at the main thread; empty
    when no event is on the main thread."""
    parents: dict[int, int | None] = {}
    main_ids: set[int] = set()
    for ev in events:
        t = ev.thread
        parents.setdefault(t.thread_id, t.parent_thread_id)
        if t.is_main:
            main_ids.add(t.thread_id)
    if len(main_ids) > 1:
        raise MultipleMainThreads(f"trace has {len(main_ids)} main threads")
    children: dict[int, list[int]] = {}
    for tid, parent in parents.items():
        if parent is not None:
            children.setdefault(parent, []).append(tid)
    offspring = set(main_ids)
    frontier = list(main_ids)
    while frontier:
        tid = frontier.pop()
        for child in children.get(tid, ()):
            if child not in offspring:
                offspring.add(child)
                frontier.append(child)
    return LineageSet(frozenset(offspring))


def filter_ui_triggered(records: list[TaskRecord], lineage: LineageSet) -> list[TaskRecord]:
    """Keep records requested by the main thread or its offspring."""
    return [r for r in records if r.requested_by.thread_id in lineage.offspring]


def group_by_context(records: list[TaskRecord]) -> dict[ExecutionContext, list[TaskRecord]]:
    """Partition records by execution context (full frame-list equality).

    Iteration order is deterministic: groups appear by their earliest
    request time.
    """
    groups: dict[tuple[str, ...], list[TaskRecord]] = {}
    for record in sorted(records, key=attrgetter("request_ns")):
        groups.setdefault(record.context.frames, []).append(record)
    return {bucket[0].context: bucket for bucket in groups.values()}


def _metric_stats(values: list[int]) -> MetricStats:
    # Durations are integers, so both moments can be carried in exact
    # integer arithmetic; the final divisions are correctly rounded.
    n = len(values)
    total = sum(values)
    total_sq = sum(map(mul, values, values))
    mean = total / n
    variance = (n * total_sq - total * total) / (n * n)
    ordered = sorted(values)
    return MetricStats(
        mean=mean,
        variance=variance,
        median=ordered[(n - 1) // 2],
        min=ordered[0],
        max=ordered[-1],
    )


def compute_stats(group: list[TaskRecord]) -> GroupStats:
    """Statistics over the complete records of one context group.

    Incomplete records (no end time, including cancelled-while-queued
    tasks) are counted but contribute to no duration statistic.
    """
    return stats_and_durations(group)[0]


def stats_and_durations(
    group: list[TaskRecord],
) -> tuple[GroupStats, list[int], list[int]]:
    """``compute_stats`` plus the queuing times and latencies it was
    computed from: the ``queuing_time`` and ``latency`` of each complete
    record, in group order."""
    if not group:
        raise ValueError("group must be non-empty")
    queuing_values: list[int] = []
    latency_values: list[int] = []
    add_queuing, add_latency = queuing_values.append, latency_values.append
    n_cancelled = 0
    for _, _, _, _, request_ns, _, start_ns, end_ns, cancelled in group:
        if cancelled:
            n_cancelled += 1
        if end_ns is not None:  # so start_ns is too
            add_queuing(start_ns - request_ns)
            add_latency(end_ns - start_ns)
    n_complete = len(latency_values)
    stats = GroupStats(
        context=group[0].context,
        mechanism=group[0].mechanism,
        n_complete=n_complete,
        n_incomplete=len(group) - n_complete,
        n_cancelled=n_cancelled,
        queuing=_metric_stats(queuing_values) if queuing_values else None,
        latency=_metric_stats(latency_values) if latency_values else None,
    )
    return stats, queuing_values, latency_values


def _ratio_warnings(warnings: list[Warning], metric: Metric, ms: MetricStats,
                    cfg: HeuristicConfig) -> None:
    if ms.mean > 0:
        cv = math.sqrt(ms.variance) / ms.mean
        if cv > cfg.cv_threshold:
            warnings.append(Warning(
                metric, Heuristic.HIGH_VARIANCE, cv / cfg.cv_threshold,
                (("cv", cv), ("mean_ns", ms.mean), ("variance", ms.variance))))
    # 1ns floors keep zero minima/medians from dividing the ratios away.
    max_min = ms.max / max(ms.min, 1)
    if max_min > cfg.max_min_ratio:
        warnings.append(Warning(
            metric, Heuristic.MAX_MIN_SPREAD, max_min / cfg.max_min_ratio,
            (("max_ns", float(ms.max)), ("min_ns", float(ms.min)))))
    max_median = ms.max / max(ms.median, 1)
    if max_median > cfg.max_median_ratio:
        warnings.append(Warning(
            metric, Heuristic.MAX_MEDIAN_SPREAD, max_median / cfg.max_median_ratio,
            (("max_ns", float(ms.max)), ("median_ns", float(ms.median)))))


def detect_anomalies(stats: GroupStats, cfg: HeuristicConfig) -> list[Warning]:
    """Evaluate every heuristic against one group's statistics.

    Ratio heuristics need ``min_samples`` complete records; the absolute
    latency checks and the incomplete-fraction check always apply.
    """
    warnings: list[Warning] = []
    if stats.n_complete >= cfg.min_samples:
        if stats.queuing is not None:
            _ratio_warnings(warnings, Metric.QUEUING, stats.queuing, cfg)
        if stats.latency is not None:
            _ratio_warnings(warnings, Metric.LATENCY, stats.latency, cfg)
    if stats.latency is not None:
        if stats.latency.max > cfg.abs_latency_warn_ns:
            warnings.append(Warning(
                Metric.LATENCY, Heuristic.ABSOLUTE_LATENCY,
                stats.latency.max / cfg.abs_latency_warn_ns,
                (("max_ns", float(stats.latency.max)),)))
        if stats.latency.max > cfg.abs_anr_ns:
            warnings.append(Warning(
                Metric.LATENCY, Heuristic.ANR_SCALE, stats.latency.max / cfg.abs_anr_ns,
                (("max_ns", float(stats.latency.max)),)))
    total = stats.n_complete + stats.n_incomplete
    if total > 0:
        fraction = stats.n_incomplete / total
        if fraction > cfg.incomplete_warn_fraction:
            warnings.append(Warning(
                Metric.INCOMPLETE, Heuristic.INCOMPLETE_FRACTION,
                fraction / cfg.incomplete_warn_fraction,
                (("incomplete", float(stats.n_incomplete)),
                 ("complete", float(stats.n_complete)))))
    return warnings


def suspiciousness(warnings: list[Warning]) -> float:
    """A group's ranking score: the worst threshold-exceedance ratio."""
    return max((w.score for w in warnings), default=0.0)
