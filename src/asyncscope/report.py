"""Diagnosis report assembly and rendering.

A report merges one or more analyzed sessions: rows are (config,
context) groups ranked by suspiciousness, with per-metric histograms.
Text output is for humans (adaptive units); JSON is the stable
machine-readable twin (raw nanoseconds).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import NamedTuple

from .analyzer import (
    GroupStats,
    HeuristicConfig,
    Metric,
    MetricStats,
    Warning,
    build_lineage,
    detect_anomalies,
    filter_ui_triggered,
    group_by_context,
    stats_and_durations,
    suspiciousness,
)
from .trace_model import TraceSession, correlate

DEFAULT_BINS = 20


class Histogram(NamedTuple):
    """Counts in equal-width bins over [lo, hi], the least and greatest value."""

    lo: int
    hi: int
    counts: tuple[int, ...]

    def edges(self) -> list[float]:
        """``lo + i*width`` for each bin i, then ``float(hi)``."""
        width = (self.hi - self.lo) / (len(self.counts) or 1)  # no counts: no bins
        edges = [self.lo + i * width for i in range(len(self.counts))]
        edges.append(float(self.hi))
        return edges


@dataclass(frozen=True)
class ReportRow:
    group_ref: str  # "<config_index>-<context_index>"
    context_index: int
    config_index: int
    stats: GroupStats
    warnings: tuple[Warning, ...]
    suspiciousness: float


@dataclass(frozen=True)
class DiagnosisReport:
    config_entries: tuple[tuple[int, str], ...]
    rows: tuple[ReportRow, ...]
    contexts: tuple[tuple[str, ...], ...]
    histograms: tuple[tuple[str, str, Histogram], ...]  # (group_ref, metric name, histogram)


def histogram(values: list[int], bins: int) -> Histogram:
    """Count values into equal-width bins over [min, max]; the max, and
    every value of a zero-width range, lands in the last bin."""
    if not values:
        raise ValueError("values must be non-empty")
    if bins < 1:
        raise ValueError("bins must be positive")
    lo, hi = min(values), max(values)
    counts = [0] * bins
    last = bins - 1
    if lo == hi:
        counts[last] = len(values)
    else:
        width = (hi - lo) / bins
        for v in values:
            idx = int((v - lo) / width)
            counts[idx if idx < last else last] += 1
    return Histogram(lo, hi, tuple(counts))


def build_report(
    sessions: list[TraceSession],
    cfg: HeuristicConfig | None = None,
) -> DiagnosisReport:
    """Analyze sessions and assemble the ranked multi-config report."""
    if cfg is None:
        cfg = HeuristicConfig()
    config_entries = []
    context_index: dict[tuple[str, ...], int] = {}  # insertion-ordered
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
            ctx_i = context_index.setdefault(context.frames, len(context_index))
            stats, queuing_values, latency_values = stats_and_durations(group)
            warnings = tuple(detect_anomalies(stats, cfg))
            ref = f"{config_i}-{ctx_i}"
            rows.append(ReportRow(
                group_ref=ref,
                context_index=ctx_i,
                config_index=config_i,
                stats=stats,
                warnings=warnings,
                suspiciousness=suspiciousness(list(warnings)),
            ))
            if queuing_values:
                histograms.append(
                    (ref, Metric.QUEUING.value, histogram(queuing_values, DEFAULT_BINS)))
            if latency_values:
                histograms.append(
                    (ref, Metric.LATENCY.value, histogram(latency_values, DEFAULT_BINS)))
    rows.sort(key=_rank_key)
    return DiagnosisReport(
        config_entries=tuple(config_entries),
        rows=tuple(rows),
        contexts=tuple(context_index),
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
                f"{row.group_ref:<8} {s.mechanism.value:<8} "
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
    """The document that ``render_json`` writes."""
    return {
        "config_entries": [
            {"index": i, "label": label} for i, label in report.config_entries
        ],
        "rows": [
            {
                "group_ref": row.group_ref,
                "config_index": row.config_index,
                "context_index": row.context_index,
                "mechanism": row.stats.mechanism.value,
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
        "histograms": list(starmap(_histogram_dict, report.histograms)),
    }


def _histogram_dict(ref: str, metric: str, h: Histogram) -> dict:
    edges = h.edges()  # bin i spans edges[i] to edges[i + 1]
    return {"group_ref": ref, "metric": metric,
            "bins": list(map(list, zip(edges, edges[1:], h.counts)))}


class _Uncovered(Exception):
    """A value that render_json's templates do not write as json does."""


# Each item as json.dumps(report_to_dict(report), indent=2, sort_keys=True)
# writes it at its depth. %d and %r write an int and a finite float as json
# does only when its type is exactly int or float, which the writers check.
_CONFIG = '{\n      "index": %d,\n      "label": %s\n    }'
_HISTOGRAM = '{\n      "bins": [%s\n      ],\n      "group_ref": %s,\n      "metric": %s\n    }'
_ROW = (
    '{\n      "config_index": %d,\n      "context_index": %d,\n      "group_ref": %s,'
    '\n      "latency": %s,\n      "mechanism": %s,\n      "n_cancelled": %d,'
    '\n      "n_complete": %d,\n      "n_incomplete": %d,\n      "queuing": %s,'
    '\n      "suspiciousness": %r,\n      "warnings": %s\n    }'
)
_STATS = (
    '{\n        "max_ns": %d,\n        "mean_ns": %r,\n        "median_ns": %d,'
    '\n        "min_ns": %d,\n        "variance": %r\n      }'
)
_WARNING = (
    '{\n          "evidence": %s,\n          "heuristic": %s,\n          "metric": %s,'
    '\n          "score": %r\n        }'
)
# One histogram bin, after the comma before it. _BIN_OF_COUNT takes the two
# edges and leaves the count's %d; _BIN takes all three.
_BIN_OF_COUNT = ",\n        [\n          %s,\n          %s,\n          %%d\n        ]"
_BIN = _BIN_OF_COUNT % ("%s", "%s")


def _block(items, indent: str, brackets: str) -> str:
    """The JSON array or object (``brackets`` "[]" or "{}") of ``items``,
    each already written, on a line that starts with ``indent``."""
    inner = indent + "  "
    text = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{text}{indent}{brackets[1]}" if text else brackets


def _histogram_json(ref: str, metric: str, h: Histogram) -> str:
    """The text of a histogram whose range is two ints and whose counts are
    a non-empty tuple of ints, so that its edges are finite floats.

    Each edge is formatted once. A zero-width histogram's edges are all
    ``float(lo)``, so one text serves every bin's two edges; when only its
    last bin is counted, as in every one that ``histogram`` makes, one
    zero bin's text serves every bin but the last.
    """
    lo, hi, counts = h
    if not (type(lo) is type(hi) is int and type(counts) is tuple
            and set(map(type, counts)) == {int}):
        raise _Uncovered
    if lo == hi:
        edge = repr(float(lo))
        bin_of_count = _BIN_OF_COUNT % (edge, edge)
        zeros = len(counts) - 1
        if counts[-1] and counts.count(0) == zeros:
            text = bin_of_count % 0 * zeros + bin_of_count % counts[-1]
        else:
            text = bin_of_count * len(counts) % counts
    else:
        reprs = list(map(float.__repr__, h.edges()))
        text = _BIN * len(counts) % (*chain.from_iterable(zip(reprs, reprs[1:], counts)),)
    return _HISTOGRAM % (text[1:], _quote(ref), _quote(metric))


def _config_json(index: int, label: str) -> str:
    if type(index) is not int:
        raise _Uncovered
    return _CONFIG % (index, _quote(label))


def _stats_json(ms: MetricStats | None) -> str:
    if ms is None:
        return "null"
    if not (type(ms.max) is type(ms.median) is type(ms.min) is int
            and type(ms.mean) is type(ms.variance) is float
            and isfinite(ms.mean) and isfinite(ms.variance)):
        raise _Uncovered
    return _STATS % (ms.max, ms.mean, ms.median, ms.min, ms.variance)


def _warning_json(w: Warning) -> str:
    evidence = dict(w.evidence)  # the last of a repeated key wins
    for value in (w.score, *evidence.values()):
        if not (type(value) is float and isfinite(value)):
            raise _Uncovered
    pairs = [f"{_quote(k)}: {v!r}" for k, v in sorted(evidence.items())]
    return _WARNING % (_block(pairs, "\n          ", "{}"), _quote(w.heuristic.value),
                       _quote(w.metric.value), w.score)


def _row_json(row: ReportRow) -> str:
    s = row.stats
    if not (type(row.config_index) is type(row.context_index) is type(s.n_cancelled)
            is type(s.n_complete) is type(s.n_incomplete) is int
            and type(row.suspiciousness) is float and isfinite(row.suspiciousness)):
        raise _Uncovered
    return _ROW % (
        row.config_index, row.context_index, _quote(row.group_ref), _stats_json(s.latency),
        _quote(s.mechanism.value), s.n_cancelled, s.n_complete, s.n_incomplete,
        _stats_json(s.queuing), row.suspiciousness,
        _block(map(_warning_json, row.warnings), "\n      ", "[]"),
    )


def _json_pieces(report: DiagnosisReport):
    """Yield ``render_json``'s text, a piece per item of each top-level list."""
    sections = (
        ("config_entries", starmap(_config_json, report.config_entries)),
        ("contexts", (_block(map(_quote, frames), "\n    ", "[]") for frames in report.contexts)),
        ("histograms", starmap(_histogram_json, report.histograms)),
        ("rows", map(_row_json, report.rows)),
    )
    head = '{\n  "'
    for key, items in sections:
        yield f'{head}{key}": ['
        head = ',\n  "'
        sep = "\n    "
        for item in items:
            yield sep
            yield item
            sep = ",\n    "
        yield "\n  ]" if sep[0] == "," else "]"
    yield "\n}\n"


def render_json(report: DiagnosisReport) -> bytes:
    """``json.dumps(report_to_dict(report), indent=2, sort_keys=True)``
    and a newline, byte for byte: written from templates, or through
    ``json.dumps`` when a count or range is not exactly an ``int``, a
    number not a finite ``float``, a string not a ``str``, or a histogram
    has no counts."""
    try:
        text = "".join(_json_pieces(report))  # drops the pieces before encoding
    except (_Uncovered, TypeError):  # TypeError: _quote of a non-str
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    return text.encode()


def write_histogram_csvs(report: DiagnosisReport, directory) -> list[str]:
    """One CSV per group-metric; returns the written file names."""
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for ref, metric, h in report.histograms:
        name = f"{ref}_{metric}.csv"
        edges = h.edges()
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write("bin_lower_ns,bin_upper_ns,count\n")
            for lower, upper, count in zip(edges, edges[1:], h.counts):
                fh.write(f"{lower},{upper},{count}\n")
        written.append(name)
    return written
