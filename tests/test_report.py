"""Histogram arithmetic, ranking, and rendering determinism."""

import dataclasses
import json
import math
import pathlib
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncscope.analyzer import GroupStats, Heuristic, Metric, MetricStats
from asyncscope.analyzer import Warning as HeuristicWarning
from asyncscope.report import (
    DiagnosisReport,
    Histogram,
    ReportRow,
    build_report,
    format_duration,
    histogram,
    render_json,
    render_text,
    report_to_dict,
    write_histogram_csvs,
)
from asyncscope.scenarios import SCENARIOS, run_scenario
from asyncscope.tracelog import parse_trace, read_trace
from asyncscope.trace_model import ExecutionContext, Mechanism, TraceSession

DATA = pathlib.Path(__file__).parent / "data"
MS = 1_000_000


def _empty_session(label="empty", session_id="e"):
    return TraceSession(session_id, label, 0, ())


# -- histograms -----------------------------------------------------------------


def test_uniform_split_two_bins():
    assert histogram([v * MS for v in range(10)], bins=2).counts == (5, 5)


def test_single_value_any_bins():
    h = histogram([42], bins=7)
    assert sum(h.counts) == 1
    assert h.counts[-1] == 1  # zero-width range collapses to the last bin


def test_histogram_rejects_degenerate_input():
    with pytest.raises(ValueError):
        histogram([], bins=4)
    with pytest.raises(ValueError):
        histogram([1, 2], bins=0)


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 10**12), min_size=1, max_size=200),
    st.integers(1, 40),
)
def test_histogram_counts_conserved(values, bins):
    h = histogram(values, bins)
    assert type(h) is Histogram and type(h.counts) is tuple
    lo, hi = min(values), max(values)
    assert (h.lo, h.hi) == (lo, hi)
    assert len(h.counts) == bins
    # Bin i is (lo + i*w, lo + (i+1)*w, count), the last ending at float(hi),
    # bit for bit: repr tells -0.0 from 0.0 and 1 from 1.0.
    w = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        counts[min(int((v - lo) / w), bins - 1) if w else bins - 1] += 1
    expected = [(lo + i * w, lo + (i + 1) * w, c) for i, c in enumerate(counts)]
    expected[-1] = (expected[-1][0], float(hi), counts[-1])
    edges = h.edges()
    out = list(zip(edges, edges[1:], h.counts))
    assert [tuple(map(repr, b)) for b in out] == [tuple(map(repr, b)) for b in expected]
    assert sum(h.counts) == len(values)
    # Every value falls inside a counted bin's [lower, upper] span.
    for v in values:
        assert any(lower <= v <= upper and count > 0 for lower, upper, count in out)


# -- assembly and ranking ------------------------------------------------------------


def test_empty_report_rendering():
    text = render_text(build_report([_empty_session()]))
    assert b"no UI-triggered asynchronous tasks observed" in text


def test_two_configs_indexed():
    report = build_report([_empty_session("first", "a"), _empty_session("second", "b")])
    assert report.config_entries == ((0, "first"), (1, "second"))


def test_rows_ranked_by_suspiciousness():
    sessions = [
        run_scenario("queue_control").session,
        run_scenario("queue_overload").session,
    ]
    report = build_report(sessions)
    scores = [row.suspiciousness for row in report.rows]
    assert scores == sorted(scores, reverse=True)
    assert report.rows[0].config_index == 1  # the defect config ranks first


def test_group_ref_matches_indices():
    report = build_report([run_scenario("pool_overload").session])
    for row in report.rows:
        assert row.group_ref == f"{row.config_index}-{row.context_index}"
        assert 0 <= row.context_index < len(report.contexts)


def test_warning_holds_what_its_json_shows():
    """Every field of a warning is written; nothing is carried unread."""
    doc = report_to_dict(build_report([run_scenario("queue_overload").session]))
    shown = [set(w) for row in doc["rows"] for w in row["warnings"]]
    assert shown
    fields = {f.name for f in dataclasses.fields(HeuristicWarning)}
    assert all(keys == fields for keys in shown)


# -- rendering ----------------------------------------------------------------------


def test_format_duration_units():
    assert format_duration(999) == "999ns"
    assert format_duration(1_500) == "1.5us"
    assert format_duration(30 * MS) == "30.0ms"
    assert format_duration(2_500_000_000) == "2.50s"


def test_renderings_deterministic():
    session = read_trace(DATA / "sequential_execute.pdt")
    a = build_report([session])
    b = build_report([parse_trace((DATA / "sequential_execute.pdt").read_bytes())])
    assert render_text(a) == render_text(b)
    assert render_json(a) == render_json(b)


def test_golden_text_fixture():
    report = build_report([read_trace(DATA / "sequential_execute.pdt")])
    assert render_text(report) == (DATA / "sequential_execute.txt").read_bytes()


def test_golden_json_fixture():
    report = build_report([read_trace(DATA / "sequential_execute.pdt")])
    assert render_json(report) == (DATA / "sequential_execute.json").read_bytes()


def _json_dumps_of(report) -> bytes:
    """What render_json must write: json.dumps of report_to_dict, and a newline."""
    return (json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n").encode()


_SCENARIO_REPORTS = {name: [name] for name in sorted(SCENARIOS)}
_SCENARIO_REPORTS["all merged"] = sorted(SCENARIOS)


def _templates_only():
    """Fail a render_json that falls back to json.dumps."""
    return mock.patch("asyncscope.report.report_to_dict", side_effect=AssertionError("fell back"))


@pytest.mark.parametrize("names", _SCENARIO_REPORTS.values(), ids=_SCENARIO_REPORTS)
def test_render_json_is_json_dumps(names):
    report = build_report([run_scenario(name).session for name in names])
    expected = _json_dumps_of(report)
    with _templates_only():
        assert render_json(report) == expected


def _hand_built(histograms=(), rows=(), contexts=(("app.main:run", "lib.io:read \u2028"),),
                config_entries=((0, "cfg é"),)) -> DiagnosisReport:
    return DiagnosisReport(config_entries=tuple(config_entries), rows=tuple(rows),
                           contexts=tuple(contexts), histograms=tuple(histograms))


_STATS = MetricStats(mean=2.5, variance=0.25, median=2, min=2, max=3)
_ROW = ReportRow(
    group_ref="0-0", context_index=0, config_index=0,
    stats=GroupStats(ExecutionContext(("app.main:run",)), Mechanism.POOL_EXECUTOR,
                     n_complete=3, n_incomplete=1, n_cancelled=0, queuing=_STATS,
                     latency=_STATS),
    warnings=(HeuristicWarning(Metric.LATENCY, Heuristic.MAX_MIN_SPREAD, 1.5,
                               (("min_ns", 2.0), ("max_ns", 3.0))),),
    suspiciousness=1.5,
)


def _stats_with(**fields) -> DiagnosisReport:
    return _hand_built(rows=[replace(_ROW, stats=replace(_ROW.stats, **fields))])


def _warning_with(**fields) -> DiagnosisReport:
    return _hand_built(rows=[replace(_ROW, warnings=(replace(_ROW.warnings[0], **fields),))])


# Histograms with an int range and int counts. histogram() builds the first
# two; a zero-width one whose count is not all in its last bin takes the
# general template.
_INT_RANGES = {
    "zero width, only the last bin counted": Histogram(7, 7, (0, 0, 0, 5)),
    "zero width, one bin": Histogram(-7, -7, (4,)),
    "zero width, counts in every bin": Histogram(7, 7, (1, 2, 3)),
    "zero width, only the first bin counted": Histogram(7, 7, (5, 0, 0)),
    "zero width, nothing counted": Histogram(0, 0, (0, 0)),
    "hi below lo": Histogram(9, -3, (1, 0, 2)),
    "one bin": Histogram(-5, 10**15, (4,)),
}
_HAND_BUILT = {
    "no histograms": _hand_built(),
    "bins=1": _hand_built([("0-0", "queuing", histogram([5, 9], 1))]),
    "zero width": _hand_built([("0-0", "latency", histogram([7] * 4, bins))
                               for bins in (1, 2, 3, 20)]),
    "float range": _hand_built([("0-0", "queuing", Histogram(0.5, 10.0, (1, 2)))]),
    "non-finite edges": _hand_built([
        ("0-0", "queuing", Histogram(math.nan, 2, (1, 2))),
        ("0-0", "latency", Histogram(0, math.inf, (1,))),
        ("0-1", "queuing", Histogram(-math.inf, 4, (0, 1))),
        ("0-1", "latency", Histogram(math.nan, math.nan, (0, 3))),
    ]),
    "non-ascii group_ref": _hand_built([("0-é😀\u2028", "latency", histogram([1, 2, 30], 4))]),
    "signed zeros": _hand_built([("0-0", "queuing", Histogram(-0.0, 0.0, (1, 2))),
                                 ("0-0", "latency", Histogram(-0.0, -0.0, (1, 2)))]),
    "bool lo": _hand_built([("0-0", "queuing", Histogram(True, 4, (1, 2)))]),
    "bool count": _hand_built([("0-0", "queuing", Histogram(0, 1, (True,)))]),
    "list counts": _hand_built([("0-0", "queuing", Histogram(0, 4, [1, 2]))]),
    "no bins": _hand_built([("0-0", "queuing", Histogram(0, 1, ()))]),
    # Rows, contexts and config entries.
    "row": _hand_built(rows=[_ROW]),
    **{f"bool {name}": _stats_with(**{name: True})
       for name in ("n_complete", "n_incomplete", "n_cancelled")},
    **{f"bool {f.name}": _stats_with(latency=replace(_STATS, **{f.name: True}))
       for f in dataclasses.fields(MetricStats)},
    **{f"bool {name}": _hand_built(rows=[replace(_ROW, **{name: True})])
       for name in ("config_index", "context_index", "suspiciousness")},
    "float config_index": _hand_built(rows=[replace(_ROW, config_index=0.0)]),
    "NaN mean": _stats_with(queuing=replace(_STATS, mean=math.nan)),
    "inf variance": _stats_with(latency=replace(_STATS, variance=math.inf)),
    "None stats": _stats_with(queuing=None, latency=None),
    "NaN suspiciousness": _hand_built(rows=[replace(_ROW, suspiciousness=math.nan)]),
    "-inf score": _warning_with(score=-math.inf),
    "inf evidence": _warning_with(evidence=(("cv", math.inf),)),
    "NaN evidence": _warning_with(evidence=(("max_ns", 3.0), ("cv", math.nan))),
    "bool score": _warning_with(score=False),
    "bool evidence": _warning_with(evidence=(("cv", True),)),
    "duplicate evidence keys": _warning_with(
        evidence=(("max_ns", 1.0), ("cv", 2.0), ("max_ns", 3.0))),
    "non-str evidence key": _warning_with(evidence=((7, 2.0),)),
    "no evidence": _warning_with(evidence=()),
    "no warnings": _hand_built(rows=[replace(_ROW, warnings=())]),
    "no contexts or config entries": _hand_built(contexts=(), config_entries=()),
    "no frames": _hand_built(contexts=((), ("a:b:1",))),
    "control characters": _hand_built(
        rows=[replace(_ROW, group_ref="0-\x00\x1f\t\"\\é😀")],
        contexts=(("\x00:\x7f:1", "é\u2028:😀:2"),), config_entries=((0, "\n\x1b\"q\" é"),)),
    "non-str label": _hand_built(config_entries=((0, None), (1, 5))),
    "non-str frame": _hand_built(contexts=(("a:b:1", 3),)),
    "bool config entry index": _hand_built(config_entries=((True, "x"),)),
}


@pytest.mark.parametrize("report", _HAND_BUILT.values(), ids=_HAND_BUILT)
def test_render_json_of_hand_built_report_is_json_dumps(report):
    assert render_json(report) == _json_dumps_of(report)


@pytest.mark.parametrize("h", _INT_RANGES.values(), ids=_INT_RANGES)
def test_render_json_writes_any_int_range_from_templates(h):
    report = _hand_built([("0-0", "latency", h)])
    expected = _json_dumps_of(report)
    with _templates_only():
        assert render_json(report) == expected


def test_histogram_with_no_counts_has_no_bins():
    doc = json.loads(render_json(_hand_built([("0-0", "queuing", Histogram(0, 1, ()))])))
    assert doc["histograms"][0]["bins"] == []


@settings(max_examples=200)
@given(st.lists(st.tuples(
    st.text(max_size=6), st.sampled_from(["queuing", "latency"]),
    st.lists(st.integers(0, 10**12), min_size=1, max_size=30), st.integers(1, 25),
), max_size=4))
def test_render_json_of_histograms_is_json_dumps(entries):
    report = _hand_built(
        (ref, metric, histogram(values, bins)) for ref, metric, values, bins in entries)
    assert render_json(report) == _json_dumps_of(report)


_ints = st.integers(-(10**20), 10**20)
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 1e16, 1e-300]))
_texts = st.one_of(st.text(), st.sampled_from(["é\u2028😀", '"q"', "back\\slash", "\x00\x1f\t\n"]))
_metric_stats = st.none() | st.builds(MetricStats, _floats, _floats, _ints, _ints, _ints)
_warnings = st.builds(
    HeuristicWarning, st.sampled_from(Metric), st.sampled_from(Heuristic), _floats,
    st.lists(st.tuples(st.one_of(_texts, st.sampled_from(["cv", "max_ns"])), _floats),
             max_size=4).map(tuple))
_rows = st.builds(
    ReportRow, _texts, _ints, _ints,
    st.builds(GroupStats, st.just(ExecutionContext(("m:f:1",))),
              st.sampled_from(Mechanism), _ints, _ints, _ints, _metric_stats,
              _metric_stats),
    st.lists(_warnings, max_size=3).map(tuple), _floats)


@settings(max_examples=300)
@given(st.lists(_rows, max_size=4), st.lists(st.lists(_texts, max_size=4), max_size=3),
       st.lists(st.tuples(_ints, _texts), max_size=3))
def test_json_writer_matches_json_dumps(rows, contexts, config_entries):
    """Rows, contexts and config entries of the report's own types are
    written from templates, as json.dumps writes them."""
    report = _hand_built(rows=rows, contexts=contexts, config_entries=config_entries)
    expected = _json_dumps_of(report)
    with _templates_only():
        assert render_json(report) == expected


def test_empty_report_has_no_rows():
    report = build_report([_empty_session()])
    assert report_to_dict(report)["rows"] == []


def test_histogram_csvs(tmp_path):
    report = build_report([read_trace(DATA / "sequential_execute.pdt")])
    written = write_histogram_csvs(report, tmp_path)
    assert sorted(written) == ["0-0_latency.csv", "0-0_queuing.csv"]
    lines = (tmp_path / "0-0_queuing.csv").read_text().splitlines()
    assert lines[0] == "bin_lower_ns,bin_upper_ns,count"
    counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert sum(counts) == 6


def test_histogram_csvs_agree_with_json(tmp_path):
    names = sorted(SCENARIOS)
    report = build_report([run_scenario(name).session for name in names])
    write_histogram_csvs(report, tmp_path)
    histograms = report_to_dict(report)["histograms"]
    for h in histograms:
        lines = (tmp_path / f"{h['group_ref']}_{h['metric']}.csv").read_text().splitlines()
        assert lines[1:] == [f"{lo!r},{hi!r},{count}" for lo, hi, count in h["bins"]]
    # sequential_execute's tasks all take the same time: a zero-width histogram.
    ref = f"{names.index('sequential_execute')}-"
    (latency,) = [h["bins"] for h in histograms
                  if h["group_ref"].startswith(ref) and h["metric"] == "latency"]
    assert len({edge for lo, hi, _ in latency for edge in (lo, hi)}) == 1
