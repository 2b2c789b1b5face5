"""Diagnosis report assembly and rendering.

A report merges one or more analyzed sessions: rows are (config,
context) groups ranked by suspiciousness, with per-metric histograms.
Text output is for humans (adaptive units); JSON is the stable
machine-readable twin (raw nanoseconds).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .analyzer import (
    GroupStats,
    HeuristicConfig,
    Metric,
    MetricStats,
    Warning,
    build_lineage,
    compute_stats,
    detect_anomalies,
    filter_ui_triggered,
    group_by_context,
    suspiciousness,
)
from .trace_model import Mechanism, TraceSession, correlate, latency, queuing_time

DEFAULT_BINS = 20


@dataclass(frozen=True)
class HistogramBin:
    lower_ns: float
    upper_ns: float
    count: int


@dataclass(frozen=True)
class ReportRow:
    group_ref: str  # "<config_index>-<context_index>"
    context_index: int
    config_index: int
    mechanism: Mechanism
    stats: GroupStats
    warnings: tuple[Warning, ...]
    suspiciousness: float


@dataclass(frozen=True)
class DiagnosisReport:
    config_entries: tuple[tuple[int, str], ...]
    rows: tuple[ReportRow, ...]
    contexts: tuple[tuple[str, ...], ...]
    # (group_ref, metric name) -> bins
    histograms: tuple[tuple[str, str, tuple[HistogramBin, ...]], ...]


def histogram(values: list[int], bins: int) -> list[HistogramBin]:
    """Equal-width bins over [min, max]; the max lands in the last bin."""
    if not values:
        raise ValueError("values must be non-empty")
    if bins < 1:
        raise ValueError("bins must be positive")
    lo, hi = min(values), max(values)
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        if width == 0:
            idx = bins - 1
        else:
            idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    out = []
    for i in range(bins):
        upper = float(hi) if i == bins - 1 else lo + (i + 1) * width
        out.append(HistogramBin(lower_ns=lo + i * width, upper_ns=upper, count=counts[i]))
    return out


def build_report(
    sessions: list[TraceSession],
    cfg: HeuristicConfig | None = None,
    bins: int = DEFAULT_BINS,
) -> DiagnosisReport:
    """Analyze sessions and assemble the ranked multi-config report."""
    if cfg is None:
        cfg = HeuristicConfig()
    config_entries = []
    contexts: list[tuple[str, ...]] = []
    context_index: dict[tuple[str, ...], int] = {}
    rows: list[ReportRow] = []
    histograms = []
    for config_i, session in enumerate(sessions):
        config_entries.append((config_i, session.config_label))
        if not session.events:
            continue  # an idle run contributes a config entry, nothing else
        records = correlate(session.events)
        lineage = build_lineage(session.events)
        kept = filter_ui_triggered(records, lineage)
        for context, group in group_by_context(kept).items():
            if context.frames not in context_index:
                context_index[context.frames] = len(contexts)
                contexts.append(context.frames)
            ctx_i = context_index[context.frames]
            stats = compute_stats(group)
            warnings = tuple(detect_anomalies(stats, cfg))
            ref = f"{config_i}-{ctx_i}"
            rows.append(ReportRow(
                group_ref=ref,
                context_index=ctx_i,
                config_index=config_i,
                mechanism=stats.mechanism,
                stats=stats,
                warnings=warnings,
                suspiciousness=suspiciousness(list(warnings)),
            ))
            queuing_values = [queuing_time(r) for r in group if r.end_ns is not None]
            latency_values = [latency(r) for r in group if r.end_ns is not None]
            if queuing_values:
                histograms.append(
                    (ref, Metric.QUEUING.value, tuple(histogram(queuing_values, bins)))
                )
            if latency_values:
                histograms.append(
                    (ref, Metric.LATENCY.value, tuple(histogram(latency_values, bins)))
                )
    rows.sort(key=_rank_key)
    return DiagnosisReport(
        config_entries=tuple(config_entries),
        rows=tuple(rows),
        contexts=tuple(contexts),
        histograms=tuple(histograms),
    )


def _rank_key(row: ReportRow):
    latency_max = row.stats.latency.max if row.stats.latency is not None else -1
    return (-row.suspiciousness, -latency_max, ";".join(row.stats.context.frames))


def format_duration(ns: float) -> str:
    """Adaptive ns/us/ms/s rendering for the text report."""
    if ns < 1_000:
        return f"{ns:.0f}ns"
    if ns < 1_000_000:
        return f"{ns / 1_000:.1f}us"
    if ns < 1_000_000_000:
        return f"{ns / 1_000_000:.1f}ms"
    return f"{ns / 1_000_000_000:.2f}s"


def _stats_cell(ms: MetricStats | None) -> str:
    if ms is None:
        return "-"
    return "/".join((
        format_duration(ms.mean),
        format_duration(ms.median),
        format_duration(ms.min),
        format_duration(ms.max),
    ))


def render_text(report: DiagnosisReport) -> bytes:
    """Deterministic human-readable rendering."""
    lines = ["asyncscope diagnosis report", "=" * 27, ""]
    lines.append("-- performance statistics --")
    if not report.rows:
        lines.append("no UI-triggered asynchronous tasks observed")
    else:
        lines.append(
            "ref      mech     n     inc  can  susp      "
            "queuing mean/med/min/max        latency mean/med/min/max"
        )
        for row in report.rows:
            s = row.stats
            lines.append(
                f"{row.group_ref:<8} {row.mechanism.value:<8} "
                f"{s.n_complete:<5} {s.n_incomplete:<4} {s.n_cancelled:<4} "
                f"{row.suspiciousness:<9.3g} "
                f"{_stats_cell(s.queuing):<29} {_stats_cell(s.latency)}"
            )
            for w in row.warnings:
                lines.append(
                    f"    warning: {w.metric.value}:{w.heuristic.value} "
                    f"(score {w.score:.3g})"
                )
    lines.append("")
    lines.append("-- execution contexts --")
    for i, frames in enumerate(report.contexts):
        lines.append(f"[{i}]")
        lines.extend(f"    {frame}" for frame in frames)
    lines.append("")
    lines.append("-- testing configurations --")
    for index, label in report.config_entries:
        lines.append(f"[{index}] {label}")
    lines.append("")
    return ("\n".join(lines)).encode("utf-8")


def _stats_dict(ms: MetricStats | None):
    if ms is None:
        return None
    return {
        "mean_ns": ms.mean,
        "variance": ms.variance,
        "median_ns": ms.median,
        "min_ns": ms.min,
        "max_ns": ms.max,
    }


def report_to_dict(report: DiagnosisReport) -> dict:
    return {
        "config_entries": [
            {"index": i, "label": label} for i, label in report.config_entries
        ],
        "rows": [
            {
                "group_ref": row.group_ref,
                "config_index": row.config_index,
                "context_index": row.context_index,
                "mechanism": row.mechanism.value,
                "n_complete": row.stats.n_complete,
                "n_incomplete": row.stats.n_incomplete,
                "n_cancelled": row.stats.n_cancelled,
                "queuing": _stats_dict(row.stats.queuing),
                "latency": _stats_dict(row.stats.latency),
                "suspiciousness": row.suspiciousness,
                "warnings": [
                    {
                        "metric": w.metric.value,
                        "heuristic": w.heuristic.value,
                        "score": w.score,
                        "evidence": {k: v for k, v in w.evidence},
                    }
                    for w in row.warnings
                ],
            }
            for row in report.rows
        ],
        "contexts": [list(frames) for frames in report.contexts],
        "histograms": [
            {
                "group_ref": ref,
                "metric": metric,
                "bins": [[b.lower_ns, b.upper_ns, b.count] for b in bins],
            }
            for ref, metric, bins in report.histograms
        ],
    }


def render_json(report: DiagnosisReport) -> bytes:
    return (
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


def write_histogram_csvs(report: DiagnosisReport, directory) -> list[str]:
    """One CSV per group-metric; returns the written file names."""
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for ref, metric, bins in report.histograms:
        name = f"{ref}_{metric}.csv"
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write("bin_lower_ns,bin_upper_ns,count\n")
            for b in bins:
                fh.write(f"{b.lower_ns},{b.upper_ns},{b.count}\n")
        written.append(name)
    return written
