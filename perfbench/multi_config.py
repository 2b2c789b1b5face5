"""multi_config: many short scenario sessions merged into one report.

Each session runs one of the registered ``SCENARIOS`` builders on the
virtual clock under its own config label, is written to its own
``.pdt``, and all of them are analysed together, as
``asyncscope analyze a.pdt b.pdt ...`` does. The seed shuffles a fixed
make-up (the same number of sessions of every scenario), so per-session
fixed costs, the shared context table and a wide report of tiny groups
do the work.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass

from asyncscope import (
    SCENARIOS,
    DrainTimeout,
    EventKind,
    HeuristicConfig,
    ProfilerSession,
    VirtualClock,
    build_report,
    report_to_dict,
)

from deep_mixed import check_report
from harness import Recorded

SESSIONS_PER_SCENARIO = 40
PASS_PAIRS = 2  # pairs of off/on record passes per round


@dataclass(frozen=True)
class Plan:
    seed: int
    names: tuple[str, ...]
    labels: tuple[str, ...]


def make_plan(seed: int, scale: float) -> Plan:
    per = max(1, int(SESSIONS_PER_SCENARIO * scale))
    names = [name for name in sorted(SCENARIOS) for _ in range(per)]
    random.Random(seed).shuffle(names)
    labels = tuple(f"cfg-{i:05d} {name}" for i, name in enumerate(names))
    return Plan(seed, tuple(names), labels)


def _instrument(session: ProfilerSession, timer, tracer) -> None:
    """Route the scenario's executor creation and submissions through the
    benchmark's timers, from outside the program."""

    def factory(make):
        def make_timed(*args, **kwargs):
            with tracer.span("runtime.session"):
                executor = make(*args, **kwargs)
            executor.submit = functools.partial(timer, executor.submit)
            return executor

        return make_timed

    session.pool_executor = factory(session.pool_executor)
    session.serial_executor = factory(session.serial_executor)
    session.spawn_thread = functools.partial(timer, session.spawn_thread)


def record(plan: Plan, emit: bool, timer, tracer) -> Recorded:
    sessions = []
    timeouts = 0
    for i, name in enumerate(plan.names):
        with tracer.span("runtime.session"):
            session = ProfilerSession(clock=VirtualClock(), config_label=plan.labels[i],
                                      session_id=f"s{i}", emit_events=emit)
        _instrument(session, timer, tracer)
        with tracer.span("scenario.build"):
            SCENARIOS[name].build(session)
        with tracer.span("runtime.wait_idle"):
            session.wait_idle()
        with tracer.span("runtime.drain"):
            try:
                sessions.append(session.drain())
            except DrainTimeout as exc:
                sessions.append(exc.session)
                timeouts += 1
    return Recorded(sessions, len(timer.samples), timer,
                    {"timeouts": timeouts})


def _rows_by_config(report: dict) -> dict[int, list[dict]]:
    rows: dict[int, list[dict]] = {}
    for row in report["rows"]:
        rest = {k: v for k, v in row.items()
                if k not in ("group_ref", "config_index", "context_index")}
        rest["context"] = report["contexts"][row["context_index"]]
        rows.setdefault(row["config_index"], []).append(rest)
    return rows


def check_pass(plan: Plan, rec, emit: bool) -> list[tuple[str, int]]:
    name = "on" if emit else "off"
    problems = []
    if rec.timer.failed:
        problems.append((f"{name} pass: {rec.timer.failed} submissions raised",
                         rec.timer.failed))
    if rec.extra["timeouts"]:
        problems.append((f"{name} pass: {rec.extra['timeouts']} sessions never drained", 0))
    if not emit and any(s.events for s in rec.sessions):
        problems.append(("events recorded with emission off", 0))
    return problems


def check(plan: Plan, rnd, report: dict, full: bool) -> list[tuple[str, int]]:
    problems = []
    if any(off.tasks != on.tasks for off, on in rnd.pairs):
        problems.append(("emission-off pass made another number of submissions", 0))
    labels = [entry["label"] for entry in report["config_entries"]]
    if labels != list(plan.labels):
        problems.append(("config entries are not in input order", rnd.on.tasks))
    tasks = [Counter(ev.kind for ev in s.events)[EventKind.SCHEDULE]
             for s in rnd.on.sessions]
    rows = _rows_by_config(report)
    for i, name in enumerate(plan.names):
        fired = {(w["metric"], w["heuristic"]) for row in rows.get(i, ())
                 for w in row["warnings"]}
        want = {(m.value, h.value) for m, h in SCENARIOS[name].expected_warnings}
        if fired != want:
            problems.append((f"config {i} ({name}) fired {sorted(fired)}", tasks[i]))
    problems += check_report(report, HeuristicConfig())
    if full:
        for i, session in enumerate(rnd.on.sessions):
            alone = _rows_by_config(report_to_dict(build_report([session])))
            if rows.get(i, []) != alone.get(0, []):
                problems.append((f"config {i}: rows differ from analysing it alone",
                                 tasks[i]))
    return problems
