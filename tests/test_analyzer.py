"""Lineage, grouping, statistics, and heuristic tests with independent
oracles for the derived values."""

import dataclasses
import math
import pathlib
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncscope.analyzer import (
    Heuristic,
    HeuristicConfig,
    Metric,
    MultipleMainThreads,
    build_lineage,
    compute_stats,
    detect_anomalies,
    filter_ui_triggered,
    group_by_context,
    suspiciousness,
)
from asyncscope.analyzer import Warning as HeuristicWarning
from asyncscope.cli import EXIT_DATA, main as cli_main
from asyncscope.trace_model import (
    EventKind,
    ExecutionContext,
    Mechanism,
    TaskEvent,
    TaskRecord,
    ThreadIdentity,
)

MS = 1_000_000
MAIN = ThreadIdentity(1, None, True)
CTX = ExecutionContext(("app:refresh:42",))


def _spawn(thread):
    return TaskEvent(0, EventKind.SPAWN, None, None, thread)


def _record(request=0, start=None, end=None, requested_by=MAIN, ctx=CTX,
            cancelled=False, key="POOL#1"):
    return TaskRecord(
        task_key=key, mechanism=Mechanism.POOL_EXECUTOR, context=ctx,
        requested_by=requested_by, request_ns=request,
        executed_on=None, start_ns=start, end_ns=end, cancelled=cancelled,
    )


def _complete(queuing_ns, latency_ns, request=0, **kwargs):
    start = request + queuing_ns
    return _record(request=request, start=start, end=start + latency_ns, **kwargs)


# -- lineage -----------------------------------------------------------------


def test_lineage_closure():
    a = ThreadIdentity(2, 1)
    b = ThreadIdentity(3, 2)
    s = ThreadIdentity(4, None)
    t = ThreadIdentity(5, 4)
    lineage = build_lineage([_spawn(MAIN), _spawn(a), _spawn(b), _spawn(s), _spawn(t)])
    assert lineage.offspring == frozenset({1, 2, 3})


def test_lineage_main_only():
    lineage = build_lineage([_spawn(MAIN)])
    assert lineage.offspring == frozenset({1})
    assert 1 in lineage and 2 not in lineage


def test_lineage_requires_unique_main():
    """A trace that never shows its main thread reaches nothing from it,
    not even a thread whose parent is the main thread's id."""
    assert build_lineage([_spawn(ThreadIdentity(2, 1))]).offspring == frozenset()
    assert build_lineage([]).offspring == frozenset()
    with pytest.raises(MultipleMainThreads):
        build_lineage([_spawn(MAIN), _spawn(ThreadIdentity(7, None, True))])


def _oracle_offspring(parents, main_id):
    """Reachability by repeated expansion until fixpoint."""
    reach = {main_id}
    changed = True
    while changed:
        changed = False
        for tid, parent in parents.items():
            if parent in reach and tid not in reach:
                reach.add(tid)
                changed = True
    return reach


@pytest.mark.parametrize("seed", range(15))
def test_lineage_matches_reachability_oracle(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 200)
    parents = {1: None}
    threads = [MAIN]
    for tid in range(2, n + 1):
        # Roots model system threads; everything else hangs off an earlier thread.
        parent = None if rng.random() < 0.2 else rng.randrange(1, tid)
        parents[tid] = parent
        threads.append(ThreadIdentity(tid, parent))
    events = [_spawn(t) for t in threads]
    lineage = build_lineage(events)
    assert lineage.offspring == frozenset(_oracle_offspring(parents, 1))


def test_filter_keeps_main_drops_system(seed=0):
    system = ThreadIdentity(9, None)
    child = ThreadIdentity(2, 1)
    lineage = build_lineage([_spawn(MAIN), _spawn(child), _spawn(system)])
    records = [
        _record(requested_by=MAIN, key="a"),
        _record(requested_by=child, key="b"),
        _record(requested_by=system, key="c"),
    ]
    kept = filter_ui_triggered(records, lineage)
    assert [r.task_key for r in records if r.requested_by.thread_id in {1, 2}] == \
        [r.task_key for r in kept]
    assert filter_ui_triggered(kept, lineage) == kept  # idempotent


@pytest.mark.parametrize("seed", range(10))
def test_filter_matches_predicate_oracle(seed):
    rng = random.Random(seed)
    threads = [MAIN] + [
        ThreadIdentity(tid, rng.choice([None, 1])) for tid in range(2, 30)
    ]
    lineage = build_lineage([_spawn(t) for t in threads])
    records = [
        _record(requested_by=rng.choice(threads), key=f"k{i}")
        for i in range(100)
    ]
    kept = filter_ui_triggered(records, lineage)
    assert kept == [r for r in records if r.requested_by.thread_id in lineage.offspring]


# -- grouping ------------------------------------------------------------------


def test_same_frames_one_group():
    groups = group_by_context([_record(key="a"), _record(key="b")])
    assert len(groups) == 1
    (members,) = groups.values()
    assert len(members) == 2


def test_one_frame_difference_two_groups():
    other = ExecutionContext(("app:refresh:43",))
    groups = group_by_context([_record(key="a"), _record(key="b", ctx=other)])
    assert len(groups) == 2


@pytest.mark.parametrize("seed", range(10))
def test_grouping_matches_equivalence_classes(seed):
    rng = random.Random(seed)
    contexts = [
        ExecutionContext((f"m:f{rng.randrange(4)}:1", f"m:g{rng.randrange(3)}:2"))
        for _ in range(40)
    ]
    records = [
        _record(request=rng.randrange(1000), key=f"k{i}", ctx=ctx)
        for i, ctx in enumerate(contexts)
    ]
    groups = group_by_context(records)
    oracle = {}
    for r in records:
        oracle.setdefault(r.context.frames, []).append(r)
    assert {ctx.frames: [r.task_key for r in members]
            for ctx, members in groups.items()} == \
        {frames: [r.task_key for r in sorted(members, key=lambda r: r.request_ns)]
         for frames, members in oracle.items()}


# -- statistics ------------------------------------------------------------------


def test_stats_textbook_example():
    group = [_complete(q, 1 * MS, key=f"k{q}") for q in (0, 10 * MS, 20 * MS)]
    stats = compute_stats(group)
    assert stats.n_complete == 3
    assert stats.queuing.mean == pytest.approx(10 * MS, abs=0)
    assert stats.queuing.median == 10 * MS
    # Population variance of [0, 10, 20] ms is 200/3 ms^2.
    expected = 200 / 3 * MS * MS
    assert math.isclose(stats.queuing.variance, expected, rel_tol=1e-15)


def test_stats_of_no_records_rejected():
    with pytest.raises(ValueError, match="^group must be non-empty$"):
        compute_stats([])


def test_stats_single_value():
    stats = compute_stats([_complete(7 * MS, 3 * MS)])
    assert stats.queuing.variance == 0
    assert stats.queuing.min == stats.queuing.median == stats.queuing.max == 7 * MS


def test_stats_constant_values():
    group = [_complete(5, 5, key=f"k{i}") for i in range(4)]
    stats = compute_stats(group)
    assert stats.latency.variance == 0
    assert (stats.latency.mean, stats.latency.median) == (5, 5)


def test_stats_counts_incomplete_and_cancelled():
    group = [
        _complete(0, 5 * MS, key="done"),
        _record(key="queued-cancel", cancelled=True),
        _record(key="never-finished", start=10),
    ]
    stats = compute_stats(group)
    assert (stats.n_complete, stats.n_incomplete, stats.n_cancelled) == (1, 2, 1)


def _oracle_stats(values):
    return (
        statistics.fmean(values),
        statistics.pvariance(values),
        sorted(values)[(len(values) - 1) // 2],
        min(values),
        max(values),
    )


@settings(max_examples=1000)
@given(st.lists(st.tuples(st.integers(0, 10**10), st.integers(0, 10**10)),
                min_size=1, max_size=40))
def test_stats_match_independent_recomputation(pairs):
    group = [_complete(q, l, key=f"k{i}") for i, (q, l) in enumerate(pairs)]
    stats = compute_stats(group)
    for ms, values in ((stats.queuing, [q for q, _ in pairs]),
                       (stats.latency, [l for _, l in pairs])):
        mean, var, median, lo, hi = _oracle_stats(values)
        # Both sides are correctly rounded over exact integer input, so
        # the reals agree to the last bit, not just within 1 ulp.
        assert abs(ms.mean - mean) <= math.ulp(mean)
        assert abs(ms.variance - var) <= math.ulp(var)
        assert (ms.median, ms.min, ms.max) == (median, lo, hi)


# -- heuristics ---------------------------------------------------------------------


def _fired(stats, cfg=None):
    cfg = cfg or HeuristicConfig()
    return {(w.metric, w.heuristic) for w in detect_anomalies(stats, cfg)}


def test_equal_latencies_fire_nothing():
    stats = compute_stats([_complete(0, 10 * MS, key=f"k{i}") for i in range(5)])
    assert _fired(stats) == set()


def test_sequential_ladder_fires_exactly_max_min_spread():
    # Hand evaluation for queuing [0, 300, 600] ms: CV ~= 0.816 (silent),
    # max/median = 2 (silent), max/min floored at 1ns (fires).
    group = [
        _complete(q, 300 * MS, key=f"k{q}", request=0)
        for q in (0, 300 * MS, 600 * MS)
    ]
    stats = compute_stats(group)
    cv = math.sqrt(stats.queuing.variance) / stats.queuing.mean
    assert cv == pytest.approx(math.sqrt(2 / 3), rel=1e-12)
    fired = _fired(stats)
    assert (Metric.QUEUING, Heuristic.MAX_MIN_SPREAD) in fired
    assert (Metric.QUEUING, Heuristic.HIGH_VARIANCE) not in fired
    assert (Metric.QUEUING, Heuristic.MAX_MEDIAN_SPREAD) not in fired
    # Latency stays flat at 300ms: above the 200ms absolute bar, below ANR.
    assert (Metric.LATENCY, Heuristic.ABSOLUTE_LATENCY) in fired
    assert (Metric.LATENCY, Heuristic.ANR_SCALE) not in fired


def test_anr_scale_fires_above_ten_seconds():
    stats = compute_stats([_complete(0, 10_500 * MS)])
    fired = _fired(stats)
    assert (Metric.LATENCY, Heuristic.ANR_SCALE) in fired
    assert (Metric.LATENCY, Heuristic.ABSOLUTE_LATENCY) in fired


def test_incomplete_fraction_fires():
    group = [_complete(0, 1 * MS, key="done")] + [
        _record(key=f"stuck{i}", start=1) for i in range(3)
    ]
    stats = compute_stats(group)
    warnings = detect_anomalies(stats, HeuristicConfig())
    (w,) = [w for w in warnings if w.heuristic is Heuristic.INCOMPLETE_FRACTION]
    assert w.score == pytest.approx(0.75 / 0.5)


def test_ratio_heuristics_need_min_samples():
    group = [_complete(0, 1, key="a"), _complete(1000 * MS, 1, key="b")]
    fired = _fired(compute_stats(group))
    assert (Metric.QUEUING, Heuristic.MAX_MIN_SPREAD) not in fired


def test_suspiciousness_is_max_score():
    assert suspiciousness([]) == 0.0
    warnings = [
        HeuristicWarning(Metric.QUEUING, Heuristic.HIGH_VARIANCE, 1.2),
        HeuristicWarning(Metric.LATENCY, Heuristic.ANR_SCALE, 3.0),
    ]
    assert suspiciousness(warnings) == 3.0


# -- configuration -------------------------------------------------------------------


def test_config_defaults_validated():
    with pytest.raises(ValueError):
        HeuristicConfig(cv_threshold=0)
    with pytest.raises(ValueError):
        HeuristicConfig(min_samples=1)


def test_config_from_file(tmp_path):
    path = tmp_path / "thresholds.cfg"
    path.write_text(
        "# relaxed run\n"
        "cv_threshold = 2.5\n"
        "abs_anr_ns = 5000000000\n"
        "\n"
    )
    cfg = HeuristicConfig.from_file(path)
    assert cfg.cv_threshold == 2.5
    assert cfg.abs_anr_ns == 5_000_000_000
    assert cfg.max_min_ratio == 10.0  # untouched default


@pytest.mark.parametrize("field", dataclasses.fields(HeuristicConfig),
                         ids=lambda f: f.name)
def test_config_value_takes_its_defaults_type(tmp_path, field):
    """``cv_threshold = 4`` loads as the float 4.0 and ``min_samples = 4``
    as an int; an int field refuses a fractional value."""
    path = tmp_path / "typed.cfg"
    path.write_text(f"{field.name} = 4\n")
    value = getattr(HeuristicConfig.from_file(path), field.name)
    assert type(value) is type(field.default)
    assert value == 4
    if type(field.default) is int:
        path.write_text(f"{field.name} = 2.5\n")
        with pytest.raises(ValueError, match=field.name):
            HeuristicConfig.from_file(path)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_knob = 3\n")
    with pytest.raises(ValueError):
        HeuristicConfig.from_file(path)


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("cv_threshold = banana\n")
    with pytest.raises(ValueError):
        HeuristicConfig.from_file(path)


@pytest.mark.parametrize("text, line_no, message", [
    ("cv_threshold = 0\n", 1, "cv_threshold must be positive"),
    ("# strict\nmin_samples = 1\n", 2, "min_samples must be at least 2"),
    ("cv_threshold = 2\n\nabs_anr_ns = -5\n", 3, "abs_anr_ns must be positive"),
])
def test_config_range_error_names_its_line(tmp_path, text, line_no, message):
    path = tmp_path / "range.cfg"
    path.write_text(text)
    with pytest.raises(ValueError) as exc_info:
        HeuristicConfig.from_file(path)
    assert str(exc_info.value) == f"{path}:{line_no}: {message}"


@pytest.mark.parametrize("name", ["cv_threshold", "max_min_ratio",
                                  "incomplete_warn_fraction"])
def test_config_rejects_nan_threshold(tmp_path, name):
    """NaN passes a ``<= 0`` test and would silently switch a heuristic
    off."""
    path = tmp_path / "nan.cfg"
    path.write_text(f"{name} = nan\n")
    with pytest.raises(ValueError, match=name):
        HeuristicConfig.from_file(path)


def test_config_rejects_a_key_given_twice(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("cv_threshold = 2\n# again\ncv_threshold = 3\n")
    with pytest.raises(ValueError) as exc_info:
        HeuristicConfig.from_file(path)
    assert str(exc_info.value) == f"{path}:3: cv_threshold given twice (first at line 1)"
    trace = pathlib.Path(__file__).parent / "data" / "sequential_execute.pdt"
    for argv in (["demo", "sequential_execute"], ["analyze", str(trace)]):
        assert cli_main([*argv, "--config", str(path)]) == EXIT_DATA
        assert "cv_threshold given twice" in capsys.readouterr().err
