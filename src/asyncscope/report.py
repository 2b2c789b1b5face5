"""Diagnosis report assembly and rendering.

A report merges one or more analyzed sessions: rows are (config,
context) groups ranked by suspiciousness, with per-metric histograms.
Text output is for humans (adaptive units); JSON is the stable
machine-readable twin (raw nanoseconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import is_
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


class HistogramBin(NamedTuple):
    lower_ns: float
    upper_ns: float
    count: int


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
    # (group_ref, metric name) -> bins
    histograms: tuple[tuple[str, str, tuple[HistogramBin, ...]], ...]


def histogram(values: list[int], bins: int) -> list[HistogramBin]:
    """Equal-width bins over [min, max]; the max lands in the last bin.

    Bin i spans ``lo + i*width`` to ``lo + (i+1)*width``, and the last
    bin ends at ``float(hi)``. Adjacent bins share their edge object.
    """
    if not values:
        raise ValueError("values must be non-empty")
    if bins < 1:
        raise ValueError("bins must be positive")
    lo, hi = min(values), max(values)
    width = (hi - lo) / bins
    last = bins - 1
    if width == 0:
        # Every edge is lo + 0.0: one shared empty bin, then the last.
        edge = lo + width
        return [HistogramBin(edge, edge, 0)] * last + [
            HistogramBin(edge, float(hi), len(values))]
    counts = [0] * bins
    for v in values:
        idx = int((v - lo) / width)
        counts[idx if idx < last else last] += 1
    edges = [lo + i * width for i in range(bins)]
    edges.append(float(hi))
    return list(map(tuple.__new__, repeat(HistogramBin), zip(edges, edges[1:], counts)))


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
                    (ref, Metric.QUEUING.value, tuple(histogram(queuing_values, DEFAULT_BINS)))
                )
            if latency_values:
                histograms.append(
                    (ref, Metric.LATENCY.value, tuple(histogram(latency_values, DEFAULT_BINS)))
                )
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


def _dict_without_histograms(report: DiagnosisReport) -> dict:
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
    }


def _histogram_dict(ref: str, metric: str, bins: tuple[HistogramBin, ...]) -> dict:
    return {
        "group_ref": ref,
        "metric": metric,
        "bins": [[b.lower_ns, b.upper_ns, b.count] for b in bins],
    }


def report_to_dict(report: DiagnosisReport) -> dict:
    doc = _dict_without_histograms(report)
    doc["histograms"] = [_histogram_dict(*entry) for entry in report.histograms]
    return doc


_INF = float("inf")


def _float_json(value: float) -> str:
    # As json writes floats: repr, and JavaScript's names for the rest.
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


# How json writes each scalar type that report_to_dict builds.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write_json(obj, out: list[str], indent: str) -> None:
    """Append to ``out`` the text ``json.dumps(obj, indent=2,
    sort_keys=True)`` gives for ``obj``, a document of the types that
    ``report_to_dict`` builds: dicts with str keys, lists, and the
    scalars in ``_SCALARS``. ``indent`` is the newline and spaces that
    start ``obj``'s own line.

    ``json`` drops to its pure-Python encoder whenever ``indent`` is set;
    this writer makes the same choices with fewer calls per value.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
    elif type(obj) is list:
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            sep = comma
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out.append(scalar(item))
            else:
                _write_json(item, out, inner)
        out.append(indent + "]")
    elif type(obj) is dict:
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                out.append(f"{sep}{encode_basestring_ascii(key)}: {scalar(value)}")
            else:
                out.append(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_json(value, out, inner)
            sep = comma
        out.append(indent + "}")
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# One histogram bin as render_json writes it (lower, upper, count), after
# the comma that separates it from the previous bin.
_BIN = ",\n        [\n          %s,\n          %s,\n          %d\n        ]"


def _bins_json(bins: tuple[HistogramBin, ...]) -> str | None:
    """The items of a histogram's ``"bins"`` list as ``render_json``
    writes them, or None unless each edge is a finite float, each count
    an int, and bin i's upper edge is bin i+1's lower edge object.

    Each shared edge is formatted once. A zero-width histogram, one bin
    object repeated before the last, has its repeated bin formatted once.
    """
    head = bins[0]
    repeated = len(bins) > 2 and all(map(is_, bins[1:-1], repeat(head)))
    distinct = (head, bins[-1]) if repeated else bins
    lowers, uppers, counts = zip(*distinct)
    edges = (*lowers, uppers[-1])
    if not (all(map(is_, uppers[:-1], lowers[1:]))
            and set(map(type, edges)) == {float} and all(map(isfinite, edges))
            and set(map(type, counts)) == {int}):
        return None
    reprs = list(map(float.__repr__, edges))
    if repeated:
        text = (_BIN % (reprs[0], reprs[1], counts[0]) * (len(bins) - 1)
                + _BIN % (reprs[1], reprs[2], counts[1]))
    else:
        text = _BIN * len(bins) % (*chain.from_iterable(zip(reprs, reprs[1:], counts)),)
    return text[1:]


def _write_histograms(histograms, out: list[str]) -> None:
    """``_write_json`` of ``report_to_dict``'s ``"histograms"`` list at
    the top level, written from the bins themselves."""
    if not histograms:
        out.append("[]")
        return
    sep = "[\n    "
    for ref, metric, bins in histograms:
        out.append(sep)
        sep = ",\n    "
        body = _bins_json(bins) if bins else None
        if body is None:
            _write_json(_histogram_dict(ref, metric, bins), out, "\n    ")
        else:
            out.append(
                f'{{\n      "bins": [{body}\n      ],'
                f'\n      "group_ref": {encode_basestring_ascii(ref)},'
                f'\n      "metric": {encode_basestring_ascii(metric)}\n    }}'
            )
    out.append("\n  ]")


def render_json(report: DiagnosisReport) -> bytes:
    """``json.dumps(report_to_dict(report), indent=2, sort_keys=True)``
    and a newline, byte for byte."""
    doc = _dict_without_histograms(report)
    out: list[str] = []
    sep = "{\n  "
    for key in sorted([*doc, "histograms"]):
        out.append(f"{sep}{encode_basestring_ascii(key)}: ")
        sep = ",\n  "
        if key == "histograms":
            _write_histograms(report.histograms, out)
        else:
            _write_json(doc[key], out, "\n  ")
    out.append("\n}\n")
    return "".join(out).encode("utf-8")


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
