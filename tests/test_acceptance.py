"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line directly to the terminal before asserting.

Criteria and tolerances are pinned; a failure here means the promised
behavior regressed (or, for the overhead bound, was never attainable on
this machine — the test still states the measured number honestly).
"""

import json
import math
import pathlib
import random
import statistics
import time

import pytest

from asyncscope.analyzer import (
    Heuristic,
    HeuristicConfig,
    Metric,
    build_lineage,
    compute_stats,
    detect_anomalies,
    filter_ui_triggered,
)
from asyncscope.bench import run_overhead_benchmark
from asyncscope.clock import VirtualClock
from asyncscope.report import build_report, render_json, render_text
from asyncscope.runtime import Task, session_run
from asyncscope.scenarios import SCENARIOS, run_scenario
from asyncscope.tracelog import TraceLogError, encode_session, parse_trace, read_trace
from asyncscope.trace_model import (
    EventKind,
    ExecutionContext,
    Mechanism,
    TaskEvent,
    TaskRecord,
    ThreadIdentity,
    correlate,
    latency,
    queuing_time,
)

DATA = pathlib.Path(__file__).parent / "data"
MS = 1_000_000
MAIN = ThreadIdentity(1, None, True)
CTX = ExecutionContext(("app:click:7",))


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {number:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# 1 ---------------------------------------------------------------------------


def test_criterion_1_scenario_suite(capsys):
    """Six defect scenarios fire exactly their expected warnings, six
    controls fire none, stable across 10 repeated runs, in under 10s."""
    t0 = time.perf_counter()
    failures = []
    for name in sorted(SCENARIOS):
        results = [run_scenario(name) for _ in range(10)]
        if not all(r.passed for r in results):
            failures.append(name)
        if len({encode_session(r.session) for r in results}) != 1:
            failures.append(f"{name} (nondeterministic)")
        if SCENARIOS[name].control != (not SCENARIOS[name].expected_warnings):
            failures.append(f"{name} (bad registration)")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _verdict(capsys, 1, ok,
             f"12 scenarios x 10 runs in {elapsed:.2f}s; failures: {failures or 'none'}")


# 2 ---------------------------------------------------------------------------


def test_criterion_2_sequential_vs_parallel(capsys):
    """k equal tasks: facade default queues (i-1)*d exactly; a pool of k
    starts all of them at once."""
    k, d = 5, 40 * MS

    def serial(s):
        for i in range(k):
            s.facade.execute_default(Task(f"t{i}", synthetic_duration_ns=d))

    def parallel(s):
        pool = s.pool_executor(core_size=k, max_size=k)
        for i in range(k):
            s.facade.execute_on(pool, Task(f"t{i}", synthetic_duration_ns=d))

    serial_q = [queuing_time(r)
                for r in correlate(session_run(serial, clock=VirtualClock()).events)]
    parallel_q = [queuing_time(r)
                  for r in correlate(session_run(parallel, clock=VirtualClock()).events)]
    ok = serial_q == [i * d for i in range(k)] and parallel_q == [0] * k
    _verdict(capsys, 2, ok,
             f"serial queuing {serial_q} vs parallel {parallel_q} (d={d}ns)")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_decomposition_identity(capsys):
    """queuing + latency == end - request and request <= start <= end on
    every completed record of every scenario trace."""
    checked = 0
    violations = 0
    for name in sorted(SCENARIOS):
        for rec in correlate(run_scenario(name).session.events):
            if rec.start_ns is not None:
                checked += 1
                if not rec.request_ns <= rec.start_ns:
                    violations += 1
                elif rec.end_ns is not None and not (
                    rec.start_ns <= rec.end_ns
                    and queuing_time(rec) + latency(rec) == rec.end_ns - rec.request_ns
                ):
                    violations += 1
    ok = violations == 0 and checked > 0
    _verdict(capsys, 3, ok, f"{checked} records checked, {violations} violations")


# 4 ---------------------------------------------------------------------------


def _oracle_correlate(events):
    keys = []
    for ev in events:
        if ev.kind is EventKind.SCHEDULE:
            keys.append((ev.mechanism, ev.task_key))
    records = []
    for mech, key in keys:
        request = start = end = None
        requested_by = executed_on = ctx = None
        cancelled = False
        for ev in events:
            if (ev.mechanism, ev.task_key) != (mech, key):
                continue
            if ev.kind is EventKind.SCHEDULE:
                request, requested_by, ctx = ev.timestamp_ns, ev.thread, ev.context
            elif ev.kind is EventKind.START:
                start, executed_on = ev.timestamp_ns, ev.thread
            elif ev.kind is EventKind.END:
                end = ev.timestamp_ns
            else:
                cancelled = True
                if start is not None:
                    end = ev.timestamp_ns
        records.append(TaskRecord(key, mech, ctx, requested_by, request,
                                  executed_on, start, end, cancelled))
    records.sort(key=lambda r: (r.request_ns, keys.index((r.mechanism, r.task_key))))
    return records


def _random_stream(rng):
    events = []
    for i in range(rng.randrange(1, 51)):
        key, t0 = f"T#{i}", rng.randrange(0, 10_000)
        shape = rng.choice(["full", "cancel_queued", "cancel_running", "open", "started"])
        events.append(TaskEvent(t0, EventKind.SCHEDULE, Mechanism.POOL_EXECUTOR,
                                key, MAIN, CTX, None))
        if shape == "cancel_queued":
            events.append(TaskEvent(t0 + rng.randrange(100), EventKind.CANCEL,
                                    Mechanism.POOL_EXECUTOR, key, MAIN))
        elif shape in ("full", "cancel_running", "started"):
            t1 = t0 + rng.randrange(100)
            worker = ThreadIdentity(2, 1, False)
            events.append(TaskEvent(t1, EventKind.START, Mechanism.POOL_EXECUTOR,
                                    key, worker))
            if shape != "started":
                kind = EventKind.END if shape == "full" else EventKind.CANCEL
                events.append(TaskEvent(t1 + rng.randrange(100), kind,
                                        Mechanism.POOL_EXECUTOR, key, worker))
    events.sort(key=lambda ev: ev.timestamp_ns)
    return events


def test_criterion_4_correlation_oracle(capsys):
    """correlate equals the brute-force per-key scan on 1000 random
    well-formed interleavings of up to 50 tasks."""
    rng = random.Random(0xC0FFEE)
    mismatches = sum(
        correlate(stream := _random_stream(rng)) != _oracle_correlate(stream)
        for _ in range(1000)
    )
    _verdict(capsys, 4, mismatches == 0,
             f"1000 interleavings, {mismatches} mismatches")


# 5 ---------------------------------------------------------------------------


def test_criterion_5_lineage_filter(capsys):
    """filter_ui_triggered equals the reachability predicate on random
    spawn forests of up to 200 threads, and is idempotent."""
    rng = random.Random(0x5EED)
    bad = 0
    for _ in range(200):
        n = rng.randrange(2, 201)
        threads = [MAIN]
        parents = {1: None}
        for tid in range(2, n + 1):
            parent = None if rng.random() < 0.25 else rng.randrange(1, tid)
            parents[tid] = parent
            threads.append(ThreadIdentity(tid, parent))
        lineage = build_lineage([
            TaskEvent(0, EventKind.SPAWN, None, None, t) for t in threads
        ])
        reach = {1}
        grew = True
        while grew:
            grew = False
            for tid, parent in parents.items():
                if parent in reach and tid not in reach:
                    reach.add(tid)
                    grew = True
        records = [
            TaskRecord(f"k{i}", Mechanism.NEW_THREAD, CTX, rng.choice(threads),
                       i, None, None, None, False)
            for i in range(50)
        ]
        kept = filter_ui_triggered(records, lineage)
        oracle = [r for r in records if r.requested_by.thread_id in reach]
        if lineage.offspring != frozenset(reach) or kept != oracle \
                or filter_ui_triggered(kept, lineage) != kept:
            bad += 1
    _verdict(capsys, 5, bad == 0, f"200 spawn forests, {bad} disagreements")


# 6 ---------------------------------------------------------------------------


def test_criterion_6_stats_oracle(capsys):
    """compute_stats matches independent recomputation on 1000 random
    groups: integer stats exact, real stats within 1 ulp."""
    rng = random.Random(0x57A75)
    worst = 0.0
    bad = 0
    for _ in range(1000):
        values = [(rng.randrange(0, 10**10), rng.randrange(0, 10**10))
                  for _ in range(rng.randrange(1, 60))]
        group = []
        for i, (q, l) in enumerate(values):
            group.append(TaskRecord(f"k{i}", Mechanism.POOL_EXECUTOR, CTX, MAIN,
                                    0, None, q, q + l, False))
        stats = compute_stats(group)
        for ms, data in ((stats.queuing, [q for q, _ in values]),
                         (stats.latency, [l for _, l in values])):
            mean = statistics.fmean(data)
            var = statistics.pvariance(data)
            ordered = sorted(data)
            if (ms.median, ms.min, ms.max) != \
                    (ordered[(len(data) - 1) // 2], ordered[0], ordered[-1]):
                bad += 1
            mean_err = abs(ms.mean - mean) / (math.ulp(mean) or 1.0)
            var_err = abs(ms.variance - var) / (math.ulp(var) or 1.0)
            worst = max(worst, mean_err, var_err)
            if mean_err > 1 or var_err > 1:
                bad += 1
    _verdict(capsys, 6, bad == 0,
             f"1000 groups, {bad} out-of-tolerance, worst error {worst:.2f} ulp")


# 7 ---------------------------------------------------------------------------


def _random_session(rng):
    hostile = ["|", ";", "%", "_", "%7C", "a|b;c%d", "\n", "plain"]
    text = lambda: rng.choice(hostile) + str(rng.randrange(1000))
    events = []
    t = 0
    for i in range(rng.randrange(0, 15)):
        t += rng.randrange(0, 500)
        kind = rng.choice(list(EventKind))
        thread = MAIN if rng.random() < 0.4 else ThreadIdentity(rng.randrange(2, 6), 1)
        if kind is EventKind.SPAWN:
            events.append(TaskEvent(t, kind, None, None, thread, None,
                                    text() if rng.random() < 0.5 else None))
            continue
        ctx = None
        if kind is EventKind.SCHEDULE:
            ctx = ExecutionContext(
                tuple(text() for _ in range(rng.randrange(1, 4))))
        events.append(TaskEvent(
            t, kind, rng.choice(list(Mechanism)), text(), thread, ctx,
            text() if rng.random() < 0.5 else None,
        ))
    from asyncscope.trace_model import TraceSession
    return TraceSession(text(), text(), rng.randrange(10**12), tuple(events))


def test_criterion_7_codec_round_trip(capsys):
    """parse(encode(s)) == s on 1000 random sessions; 1000 random byte
    mutations of valid files only ever raise positioned codec errors."""
    rng = random.Random(0xDEC0DE)
    round_trip_bad = sum(
        parse_trace(encode_session(s := _random_session(rng))) != s
        for _ in range(1000)
    )
    crashes = 0
    for _ in range(1000):
        raw = bytearray(encode_session(_random_session(rng)))
        for _ in range(rng.randrange(1, 5)):
            if raw:
                raw[rng.randrange(len(raw))] = rng.randrange(256)
        try:
            parse_trace(bytes(raw))
        except TraceLogError:
            pass
        except Exception:
            crashes += 1
    ok = round_trip_bad == 0 and crashes == 0
    _verdict(capsys, 7, ok,
             f"{round_trip_bad} round-trip mismatches, {crashes} parser crashes")


# 8 ---------------------------------------------------------------------------


def test_criterion_8_overhead(capsys):
    """100k trivial pool tasks on the real clock: median wall-time
    overhead of event emission versus emission disabled must be <= 5%."""
    result = run_overhead_benchmark(n_tasks=100_000, runs=5)
    overhead = result.overhead
    ok = overhead <= 0.05
    _verdict(capsys, 8, ok,
             f"median overhead {overhead * 100:.1f}% "
             f"({result.median_instrumented_s:.3f}s vs "
             f"{result.median_baseline_s:.3f}s, bound 5.0%)")


# 9 ---------------------------------------------------------------------------


def test_criterion_9_report_determinism(capsys):
    """Renderings byte-identical across runs, histogram counts conserve
    n, and the frozen sequential_execute fixtures match exactly."""
    session = read_trace(DATA / "sequential_execute.pdt")
    reports = [build_report([session]) for _ in range(3)]
    texts = {render_text(r) for r in reports}
    jsons = {render_json(r) for r in reports}
    report = reports[0]
    conserve = all(
        sum(h.counts) == next(
            row.stats.n_complete for row in report.rows if row.group_ref == ref
        )
        for ref, _metric, h in report.histograms
    )
    golden_text = render_text(report) == (DATA / "sequential_execute.txt").read_bytes()
    golden_json = render_json(report) == (DATA / "sequential_execute.json").read_bytes()
    ok = len(texts) == 1 and len(jsons) == 1 and conserve and golden_text and golden_json
    _verdict(capsys, 9, ok,
             f"deterministic={len(texts) == 1 and len(jsons) == 1}, "
             f"counts-conserved={conserve}, golden text={golden_text}, "
             f"json={golden_json}")


# 10 --------------------------------------------------------------------------


def _random_group(rng, scale=1):
    n = rng.randrange(3, 30)
    records = []
    for i in range(n):
        q = rng.randrange(1, 10**9) * scale
        l = rng.randrange(1, 10**9) * scale
        records.append(TaskRecord(f"k{i}", Mechanism.POOL_EXECUTOR, CTX, MAIN,
                                  0, None, q, q + l, False))
    return records


def _weaken(cfg, rng):
    return HeuristicConfig(
        cv_threshold=cfg.cv_threshold * rng.uniform(1.0, 3.0),
        max_min_ratio=cfg.max_min_ratio * rng.uniform(1.0, 3.0),
        max_median_ratio=cfg.max_median_ratio * rng.uniform(1.0, 3.0),
        abs_latency_warn_ns=int(cfg.abs_latency_warn_ns * rng.uniform(1.0, 3.0)),
        abs_anr_ns=int(cfg.abs_anr_ns * rng.uniform(1.0, 3.0)),
        min_samples=cfg.min_samples,
        incomplete_warn_fraction=min(0.99, cfg.incomplete_warn_fraction
                                     * rng.uniform(1.0, 1.5)),
    )


RATIO_HEURISTICS = {Heuristic.HIGH_VARIANCE, Heuristic.MAX_MIN_SPREAD,
                    Heuristic.MAX_MEDIAN_SPREAD}


def test_criterion_10_heuristic_properties(capsys):
    """Weakening every threshold never adds warnings (500 random groups);
    uniformly scaling all durations never changes which ratio heuristics
    fire (500 random groups, integer scale factors)."""
    rng = random.Random(0xB1A5)
    mono_bad = scale_bad = 0
    for _ in range(500):
        stats = compute_stats(_random_group(rng))
        cfg = HeuristicConfig()
        fired = {(w.metric, w.heuristic) for w in detect_anomalies(stats, cfg)}
        weaker = {(w.metric, w.heuristic)
                  for w in detect_anomalies(stats, _weaken(cfg, rng))}
        if not weaker <= fired:
            mono_bad += 1
    for _ in range(500):
        seed = rng.randrange(2**32)
        k = rng.choice([2, 10, 1000])
        base = compute_stats(_random_group(random.Random(seed), scale=1))
        scaled = compute_stats(_random_group(random.Random(seed), scale=k))
        cfg = HeuristicConfig()
        fire = lambda s: {
            (w.metric, w.heuristic) for w in detect_anomalies(s, cfg)
            if w.heuristic in RATIO_HEURISTICS
        }
        if fire(base) != fire(scaled):
            scale_bad += 1
    ok = mono_bad == 0 and scale_bad == 0
    _verdict(capsys, 10, ok,
             f"monotonicity violations {mono_bad}/500, "
             f"scale-invariance violations {scale_bad}/500")
