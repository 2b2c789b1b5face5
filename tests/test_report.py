"""Histogram arithmetic, ranking, and rendering determinism."""

import dataclasses
import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncscope.analyzer import Warning as HeuristicWarning
from asyncscope.report import (
    DiagnosisReport,
    HistogramBin,
    _write_json,
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
from asyncscope.trace_model import TraceSession

DATA = pathlib.Path(__file__).parent / "data"
MS = 1_000_000


def _empty_session(label="empty", session_id="e"):
    return TraceSession(session_id, label, 0, ())


# -- histograms -----------------------------------------------------------------


def test_uniform_split_two_bins():
    bins = histogram([v * MS for v in range(10)], bins=2)
    assert [b.count for b in bins] == [5, 5]


def test_single_value_any_bins():
    bins = histogram([42], bins=7)
    assert sum(b.count for b in bins) == 1
    assert bins[-1].count == 1  # zero-width range collapses to the last bin


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
    out = histogram(values, bins)
    assert len(out) == bins
    # Bin i is (lo + i*w, lo + (i+1)*w, count), the last ending at float(hi),
    # bit for bit: repr tells -0.0 from 0.0 and 1 from 1.0.
    lo, hi = min(values), max(values)
    w = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        counts[min(int((v - lo) / w), bins - 1) if w else bins - 1] += 1
    expected = [(lo + i * w, lo + (i + 1) * w, c) for i, c in enumerate(counts)]
    expected[-1] = (expected[-1][0], float(hi), counts[-1])
    assert [tuple(map(repr, b)) for b in out] == [tuple(map(repr, b)) for b in expected]
    assert all(type(b) is HistogramBin for b in out)
    assert sum(b.count for b in out) == len(values)
    # Every value falls inside exactly one bin's [lower, upper] span.
    for v in values:
        holders = [
            b for b in out
            if b.lower_ns <= v <= b.upper_ns and b.count > 0
        ]
        assert holders


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


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


_SCENARIO_REPORTS = {name: [name] for name in sorted(SCENARIOS)}
_SCENARIO_REPORTS["all merged"] = sorted(SCENARIOS)


@pytest.mark.parametrize("names", _SCENARIO_REPORTS.values(), ids=_SCENARIO_REPORTS)
def test_render_json_is_json_dumps(names):
    report = build_report([run_scenario(name).session for name in names])
    assert render_json(report) == (_dumps(report_to_dict(report)) + "\n").encode()


def _hand_built(histograms) -> DiagnosisReport:
    return DiagnosisReport(
        config_entries=((0, "cfg é"),),
        rows=(),
        contexts=(("app.main:run", "lib.io:read \u2028"),),
        histograms=tuple(histograms),
    )


_SHARED = 2.5  # one edge object, the upper of one bin and the lower of the next
_HAND_BUILT = {
    "no histograms": (),
    "bins=1": [("0-0", "queuing", tuple(histogram([5, 9], 1)))],
    "zero width": [("0-0", "latency", tuple(histogram([7] * 4, bins)))
                   for bins in (1, 2, 3, 20)],
    "non-finite edges": [
        ("0-0", "queuing", (HistogramBin(math.nan, 1.0, 1), HistogramBin(1.0, 2.0, 2))),
        ("0-0", "latency", (HistogramBin(0.0, math.inf, 1),)),
        ("0-1", "queuing", (HistogramBin(-math.inf, 3.0, 0), HistogramBin(3.0, 4.0, 1))),
    ],
    "int edges": [("0-0", "queuing", (HistogramBin(0, 5, 1), HistogramBin(5, 10, 2)))],
    "non-ascii group_ref": [("0-é😀\u2028", "latency", tuple(histogram([1, 2, 30], 4)))],
    "signed zeros": [("0-0", "queuing", (HistogramBin(-0.0, 0.0, 1), HistogramBin(-0.0, 1.0, 2)))],
    "bool count": [("0-0", "queuing", (HistogramBin(0.0, 1.0, True),))],
    "no bins": [("0-0", "queuing", ())],
    "one bin repeated": [("0-0", "queuing", (HistogramBin(1.5, _SHARED, 3),) * 3
                          + (HistogramBin(_SHARED, 4.0, 1),))],
    "equal bins, not one object": [("0-0", "queuing", (
        HistogramBin(0.0, _SHARED, 1), HistogramBin(-0.0, _SHARED, 1),
        HistogramBin(0.0, _SHARED, True), HistogramBin(_SHARED, 4.0, 1)))],
}


@pytest.mark.parametrize("histograms", _HAND_BUILT.values(), ids=_HAND_BUILT)
def test_render_json_of_hand_built_report_is_json_dumps(histograms):
    report = _hand_built(histograms)
    assert render_json(report) == (_dumps(report_to_dict(report)) + "\n").encode()


@settings(max_examples=200)
@given(st.lists(st.tuples(
    st.text(max_size=6), st.sampled_from(["queuing", "latency"]),
    st.lists(st.integers(0, 10**12), min_size=1, max_size=30), st.integers(1, 25),
), max_size=4))
def test_render_json_of_histograms_is_json_dumps(entries):
    report = _hand_built(
        (ref, metric, tuple(histogram(values, bins))) for ref, metric, values, bins in entries)
    assert render_json(report) == (_dumps(report_to_dict(report)) + "\n").encode()


_floats = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, 1e16, math.nan, math.inf, -math.inf]))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40),
    _floats, st.text(),
    st.sampled_from(["é\u2028😀", '"q"', "back\\slash", "\x00\x1f\t\n"]),
)
_bins = st.tuples(_floats, _floats, st.integers()).map(list)
_documents = st.recursive(
    st.one_of(_scalars, _bins),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=500)
@given(_documents)
def test_json_writer_matches_json_dumps(doc):
    out = []
    _write_json(doc, out, "\n")
    assert "".join(out) == _dumps(doc)


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
