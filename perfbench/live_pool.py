"""live_pool: trivial tasks from one shallow site to a real-clock pool.

The main thread is the only submitter and the pool has ``nproc - 1``
workers (at least one), so the load never asks for more threads than
cores. The first tasks of a pass hold every worker until all submissions
are in, so the submitter and the workers do not race for the interpreter
lock: how such a race interleaves depends on the host's load more than on
the program. The seed only names the tasks; the work itself is fixed, so a
run measures locking, thread handoff and event emission rather than
capture depth or the shape of the report.
"""

from __future__ import annotations

import os
import statistics
import threading
from collections import Counter
from dataclasses import dataclass

from asyncscope import (
    DrainTimeout,
    EventKind,
    ProfilerSession,
    RealMonotonicClock,
    Task,
    correlate,
    encode_session,
    latency,
    parse_trace,
    queuing_time,
)

from harness import Recorded

TASKS_PER_PASS = 2000
PASS_PAIRS = 4  # pairs of off/on record passes per round
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Plan:
    seed: int
    tasks: int
    workers: int
    label: str


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def make_plan(seed: int, scale: float) -> Plan:
    return Plan(seed=seed, tasks=max(50, int(TASKS_PER_PASS * scale)),
                workers=max(1, nproc() - 1), label=f"noop-{seed}")


def record(plan: Plan, emit: bool, timer, tracer) -> Recorded:
    hits: list = []
    gate = threading.Event()

    def held(token) -> None:
        gate.wait(DRAIN_TIMEOUT_S)
        hits.append(token)

    # Every task is submitted from the same line, so all share one context.
    tasks = [Task(plan.label, body=held)] * plan.workers
    tasks += [Task(plan.label, body=hits.append)] * (plan.tasks - plan.workers)
    with tracer.span("runtime.session"):
        session = ProfilerSession(
            clock=RealMonotonicClock(), config_label="live_pool",
            session_id="live_pool", emit_events=emit,
            drain_timeout_s=DRAIN_TIMEOUT_S,
        )
        pool = session.pool_executor(core_size=plan.workers, max_size=plan.workers)
    submit = pool.submit
    try:
        for task in tasks:
            timer(submit, task)
    finally:
        gate.set()
    with tracer.span("runtime.wait_idle"):
        idle = session.wait_idle(DRAIN_TIMEOUT_S)
    with tracer.span("runtime.drain"):
        try:
            trace = session.drain()
        except DrainTimeout as exc:
            trace = exc.session
    return Recorded([trace], plan.tasks, timer, {"hits": len(hits), "idle": idle})


def check_pass(plan: Plan, rec, emit: bool) -> list[tuple[str, int]]:
    """Problems of one record pass, each with the number of tasks it makes
    wrong."""
    n = plan.tasks
    name = "on" if emit else "off"
    problems = []
    if rec.timer.failed:
        problems.append((f"{name} pass: {rec.timer.failed} submissions raised",
                         rec.timer.failed))
    if not rec.extra["idle"]:
        problems.append((f"{name} pass: pool never went idle", n))
    if rec.extra["hits"] != n:
        problems.append((f"{name} pass: task body ran {rec.extra['hits']} times",
                         abs(n - rec.extra["hits"])))
    events = rec.sessions[0].events
    if not emit:
        if events:
            problems.append(("events recorded with emission off", 0))
        return problems
    kinds = Counter(ev.kind for ev in events)
    for kind in (EventKind.SCHEDULE, EventKind.START, EventKind.END):
        if kinds[kind] != n:
            problems.append((f"{kinds[kind]} {kind.name} events", abs(n - kinds[kind])))
    return problems


def check(plan: Plan, rnd, report: dict, full: bool) -> list[tuple[str, int]]:
    """Problems of the analysed report, each with the number of tasks it
    makes wrong."""
    n = plan.tasks
    problems = []
    trace = rnd.on.sessions[0]
    rows = report["rows"]
    if len(rows) != 1 or rows[0]["n_complete"] != n:
        got = rows[0]["n_complete"] if len(rows) == 1 else 0
        problems.append((f"report rows {len(rows)}, n_complete {got}", abs(n - got)))
        return problems
    parsed = parse_trace(rnd.blobs[0])
    records = correlate(parsed.events)
    row = rows[0]
    for metric, fn in (("queuing", queuing_time), ("latency", latency)):
        values = [fn(r) for r in records]
        expect = {
            "mean_ns": statistics.mean(values),
            "variance": statistics.pvariance(values),
            "median_ns": statistics.median_low(values),
            "min_ns": min(values),
            "max_ns": max(values),
        }
        if row[metric] != expect:
            problems.append((f"{metric} stats {row[metric]} != {expect}", n))
    if full and parse_trace(encode_session(trace)) != trace:
        problems.append(("parse_trace(encode_session(t)) != t", n))
    return problems
