"""Every trace the runtime writes analyses, on both engines.

A task counts as UI-triggered when its requester is reachable by spawn
edges from a main-thread event; a trace with no main-thread event keeps
nothing. Sessions are drawn over every submission path, from the main
thread and from ``system_thread()`` blocks, and each report is checked
against that rule computed independently, before and after the codec.
"""

import json
import threading
from collections import Counter
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncscope.analyzer import build_lineage, filter_ui_triggered
from asyncscope.cli import EXIT_OK, main
from asyncscope.clock import RealMonotonicClock, VirtualClock
from asyncscope.report import build_report
from asyncscope.runtime import DrainTimeout, ProfilerSession, QueueFull, Task
from asyncscope.trace_model import TraceSession, correlate
from asyncscope.tracelog import encode_session, parse_trace

MS = 1_000_000


def _ui_triggered_keys(events):
    """The rule, by repeated expansion from the main-thread ids to a fixpoint."""
    reach = {ev.thread.thread_id for ev in events if ev.thread.is_main}
    parents = {ev.thread.thread_id: ev.thread.parent_thread_id for ev in events}
    changed = True
    while changed:
        changed = False
        for tid, parent in parents.items():
            if parent in reach and tid not in reach:
                reach.add(tid)
                changed = True
    return {r.task_key for r in correlate(events) if r.requested_by.thread_id in reach}


def _assert_report_keeps_the_ui_triggered(trace):
    kept = _ui_triggered_keys(trace.events)
    if not any(ev.thread.is_main for ev in trace.events):
        assert kept == set()
    records = correlate(trace.events)
    lineage_kept = filter_ui_triggered(records, build_lineage(trace.events))
    assert {r.task_key for r in lineage_kept} == kept
    want = Counter(r.context.frames for r in records if r.task_key in kept)
    for session in (trace, parse_trace(encode_session(trace))):
        report = build_report([session])
        assert report.config_entries == ((0, trace.config_label),)
        got = Counter()
        for row in report.rows:
            got[report.contexts[row.context_index]] += (
                row.stats.n_complete + row.stats.n_incomplete)
        assert got == want


def _drained(session):
    try:
        return session.drain()
    except DrainTimeout as exc:
        return exc.session


_PATHS = ("pool", "looper", "facade_default", "facade_on", "service", "thread")


@st.composite
def _tasks(draw):
    duration = draw(st.one_of(st.none(), st.integers(0, 30 * MS)))
    return Task(draw(st.sampled_from("abc")), synthetic_duration_ns=duration,
                cancellation_check=draw(st.booleans()),
                check_interval_ns=draw(st.integers(1, 10 * MS)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_every_virtual_session_analyses(data):
    """Random virtual sessions over pools of drawn bounds, a looper, both
    facade paths, services and fresh threads, submitted from main or a
    system thread, some from task bodies, with cancels at drawn times;
    a never-ending task makes the drain time out."""
    draw = data.draw
    s = ProfilerSession(clock=VirtualClock(), config_label="fuzz")
    pools = []
    for _ in range(draw(st.integers(1, 2))):
        core = draw(st.integers(1, 2))
        pools.append(s.pool_executor(
            core, core + draw(st.integers(0, 2)),
            draw(st.one_of(st.none(), st.integers(1, 3))),
            draw(st.integers(0, 50 * MS))))
    executors = {}

    def submit(path, task):
        if path == "pool":
            return pools[draw(st.integers(0, len(pools) - 1))].submit(task)
        if path == "looper":
            if "looper" not in executors:
                executors["looper"] = s.serial_executor()
            return executors["looper"].submit(task)
        if path == "facade_default":
            return s.facade.execute_default(task)
        if path == "facade_on":
            return s.facade.execute_on(pools[0], task)
        if path == "service":
            s.register_service("svc")
            return s.dispatch_service("svc", task)
        return s.spawn_thread(task)

    keys = []
    for _ in range(draw(st.integers(0, 8))):
        from_system = draw(st.booleans())
        with s.system_thread() if from_system else nullcontext():
            op = draw(st.sampled_from(_PATHS + ("nested", "cancel")))
            if op == "cancel":
                if keys:
                    key = draw(st.sampled_from(keys))
                    s.call_at(draw(st.integers(0, 40 * MS)), lambda key=key: s.cancel(key))
                continue
            if op == "nested":
                inner_path, inner = draw(st.sampled_from(_PATHS)), draw(_tasks())

                def body(token, inner_path=inner_path, inner=inner):
                    try:
                        submit(inner_path, inner)
                    except QueueFull:
                        pass

                task = Task("outer", body=body, synthetic_duration_ns=MS)
                op = draw(st.sampled_from(_PATHS))
            else:
                task = draw(_tasks())
            try:
                keys.append(submit(op, task))
            except QueueFull:
                pass
    _assert_report_keeps_the_ui_triggered(_drained(s))


def _system_only(s):
    pool = s.pool_executor(1, 2)
    with s.system_thread():
        pool.submit(Task("sys", synthetic_duration_ns=MS))
        s.spawn_thread(Task("sys-thread", synthetic_duration_ns=MS))


def _foreign_only(s):
    pool = s.pool_executor(1, 1)
    submitter = threading.Thread(
        target=lambda: pool.submit(Task("foreign", synthetic_duration_ns=MS)))
    submitter.start()
    submitter.join()


def _unused_executors(s):
    s.serial_executor()
    s.register_service("svc")
    assert s.facade is not None  # built, with no task through it


@pytest.mark.parametrize("workload, clock", [
    (_system_only, VirtualClock), (_system_only, RealMonotonicClock),
    (_unused_executors, VirtualClock), (_unused_executors, RealMonotonicClock),
    (_foreign_only, RealMonotonicClock),
], ids=["system-only-virtual", "system-only-real", "unused-virtual", "unused-real",
        "foreign-only-real"])
def test_a_session_with_no_main_thread_event_has_no_rows(workload, clock, tmp_path, capsys):
    s = ProfilerSession(clock=clock(), config_label="nomain", drain_timeout_s=10)
    workload(s)
    trace = s.drain()
    assert trace.events
    assert not any(ev.thread.is_main for ev in trace.events)
    for session in (trace, parse_trace(encode_session(trace))):
        report = build_report([session])
        assert report.config_entries == ((0, "nomain"),) and report.rows == ()
    _assert_report_keeps_the_ui_triggered(trace)
    path = tmp_path / "nomain.pdt"
    path.write_bytes(encode_session(trace))
    assert main(["analyze", str(path), "--format", "json"]) == EXIT_OK
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["config_entries"] == [{"index": 0, "label": "nomain"}]
    assert payload["rows"] == [] and out.err == ""


def test_cli_analyzes_an_unused_looper_and_a_header_only_trace(tmp_path, capsys):
    s = ProfilerSession(config_label="looper")
    s.serial_executor()
    looper = tmp_path / "looper.pdt"
    looper.write_bytes(encode_session(s.drain()))
    empty = tmp_path / "empty.pdt"
    empty.write_bytes(encode_session(TraceSession("e", "idle", 0, ())))
    assert main(["analyze", str(looper), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["config_entries"] == [{"index": 0, "label": "looper"}]
    assert payload["rows"] == []
    assert main(["analyze", str(empty), "--timings"]) == EXIT_OK
    out = capsys.readouterr()
    assert "[0] idle" in out.out and "no UI-triggered" in out.out
    assert "files=1 events=0 " in out.err and " rows=0 " in out.err
