"""Differential tests: the virtual and the real engine run the same
executor policies, so a workload gets the same task structure on either
clock. Only timings may differ, within a tolerance."""

import threading
import time
from collections import defaultdict

import pytest

from asyncscope.clock import RealMonotonicClock, VirtualClock
from asyncscope.runtime import (
    CancelOutcome,
    DrainTimeout,
    ProfilerSession,
    SessionClosed,
    Task,
    session_run,
)
from asyncscope.scenarios import SCENARIOS, run_scenario
from asyncscope.trace_model import (
    EventKind,
    Mechanism,
    correlate,
    latency,
    queuing_time,
)

MS = 1_000_000
# Real sleeps overshoot and threads start late on a busy machine.
EARLY_NS = 10 * MS
LATE_NS = 500 * MS
SERIAL_PREFIXES = ("LOOPER", "AQUERY", "AFACADE", "SERVICE")
# Each of these sleeps 25 s of real time.
SLOW = {"blocking_execution", "no_cancel"}
CLOCKS = pytest.mark.parametrize("clock", [VirtualClock, RealMonotonicClock],
                                 ids=["virtual", "real"])


def _structure(trace):
    records = {r.task_key: r for r in correlate(trace.events)}
    labels = {ev.task_key: ev.detail for ev in trace.events
              if ev.kind is EventKind.SCHEDULE}
    per_queue = defaultdict(list)
    for ev in trace.events:
        if ev.kind is EventKind.START and ev.task_key.startswith(SERIAL_PREFIXES):
            per_queue[ev.thread.thread_id].append(ev.task_key)
    return {
        "labels": labels,
        "spawns": sum(ev.kind is EventKind.SPAWN for ev in trace.events),
        "serial_start_order": sorted(per_queue.values()),
        "cancelled": {k for k, r in records.items() if r.cancelled},
    }, records


def _assert_same_tasks(virtual_trace, real_trace):
    want, v_records = _structure(virtual_trace)
    got, r_records = _structure(real_trace)
    assert got == want
    for key, v in v_records.items():
        r = r_records[key]
        for metric in (queuing_time, latency):
            if metric(v) is None:
                assert metric(r) is None, (key, metric.__name__)
            else:
                assert metric(v) - EARLY_NS <= metric(r) <= metric(v) + LATE_NS, \
                    (key, metric.__name__, metric(v), metric(r))


@pytest.mark.parametrize("name", sorted(set(SCENARIOS) - SLOW))
def test_scenario_same_tasks_on_both_engines(name):
    virtual = run_scenario(name, clock=VirtualClock()).session
    real = run_scenario(name, clock=RealMonotonicClock()).session
    _assert_same_tasks(virtual, real)


def test_cancelled_queued_task_frees_its_queue_slot():
    gate = threading.Event()
    outcomes = []

    def workload(s):
        pool = s.pool_executor(core_size=1, max_size=1, queue_bound=1)
        pool.submit(Task("held", body=lambda token: gate.wait(5),
                         synthetic_duration_ns=1 * MS))
        queued = pool.submit(Task("queued", synthetic_duration_ns=1 * MS))
        outcomes.append(s.cancel(queued))
        try:
            pool.submit(Task("after", synthetic_duration_ns=1 * MS))
        finally:
            gate.set()

    virtual = session_run(workload, clock=VirtualClock())
    gate.clear()
    real = session_run(workload, clock=RealMonotonicClock(), drain_timeout_s=10)
    assert outcomes == [CancelOutcome.REMOVED_FROM_QUEUE] * 2
    _assert_same_tasks(virtual, real)


def test_idle_worker_above_core_retires_on_both_engines():
    def workload(s):
        pool = s.pool_executor(core_size=1, max_size=2, keep_alive_ns=20 * MS)
        for label in ("a", "b"):
            pool.submit(Task(label, synthetic_duration_ns=10 * MS))

        def later():
            for label in ("c", "d"):
                pool.submit(Task(label, synthetic_duration_ns=10 * MS))

        s.call_at(150 * MS, later)

    virtual = session_run(workload, clock=VirtualClock())
    real = session_run(workload, clock=RealMonotonicClock(), drain_timeout_s=10)
    # The second worker retires at 30 ms, so the later pair grows a third.
    assert sum(ev.kind is EventKind.SPAWN for ev in virtual.events) == 3
    _assert_same_tasks(virtual, real)


@CLOCKS
@pytest.mark.parametrize("executor", ["pool", "serial"])
def test_worker_survives_raising_body(executor, clock, monkeypatch):
    """What a task body or a timed action raises goes once to
    threading.excepthook, and the engine carries on."""
    reported = []
    monkeypatch.setattr(threading, "excepthook", reported.append)
    hits = []

    def boom(token):
        raise TypeError("boom")

    def late():
        raise ValueError("late")

    def workload(s):
        if executor == "pool":
            submit = s.pool_executor(core_size=1, max_size=1).submit
        else:
            submit = s.serial_executor().submit
        submit(Task("boom", body=boom, synthetic_duration_ns=0))
        for _ in range(200):
            submit(Task("ok", body=hits.append, synthetic_duration_ns=0))
        s.call_at(5 * MS, late)

    virtual = session_run(workload, clock=VirtualClock())
    hits.clear()
    reported.clear()
    trace = session_run(workload, clock=clock(), drain_timeout_s=5)
    assert len(hits) == 200
    records = correlate(trace.events)
    assert len(records) == 201 and all(r.end_ns is not None for r in records)
    assert sorted(type(args.exc_value).__name__ for args in reported) == [
        "TypeError", "ValueError"]
    _assert_same_tasks(virtual, trace)


@CLOCKS
def test_drain_timeout_names_stuck_tasks(clock):
    """Each task that never ends is named, queued or running, in
    submission order; the message shows the first three keys."""
    real = clock is RealMonotonicClock
    started = threading.Semaphore(0)
    threads = []

    def stuck(token):
        threads.append(threading.current_thread())
        started.release()
        while not token.is_cancelled():
            time.sleep(0.001)

    # The virtual engine runs a body inline, so there the task has none
    # and simply never ends.
    forever = Task("stuck", body=stuck if real else None,
                   synthetic_duration_ns=None, cancellation_check=True)
    session = ProfilerSession(clock=clock())
    pool = session.pool_executor(core_size=1, max_size=1)
    pool.submit(forever)
    for i in range(3):
        pool.submit(Task(f"q{i}", synthetic_duration_ns=1 * MS))
    session.spawn_thread(forever)
    if real:
        for _ in range(2):
            assert started.acquire(timeout=10)
    with pytest.raises(DrainTimeout) as exc_info:
        session.drain(timeout_s=0.05)
    err = exc_info.value
    assert [entry[:4] for entry in err.stuck] == [
        ("POOL#1", "stuck", Mechanism.POOL_EXECUTOR, "running"),
        ("POOL#2", "q0", Mechanism.POOL_EXECUTOR, "queued"),
        ("POOL#3", "q1", Mechanism.POOL_EXECUTOR, "queued"),
        ("POOL#4", "q2", Mechanism.POOL_EXECUTOR, "queued"),
        ("THREAD#1", "stuck", Mechanism.NEW_THREAD, "running"),
    ]
    # Each is stuck since its Start if running, else since its Schedule.
    times = {(ev.task_key, ev.kind): ev.timestamp_ns for ev in err.session.events}
    for key, _, _, status, since in err.stuck:
        kind = EventKind.START if status == "running" else EventKind.SCHEDULE
        assert since == times[key, kind]
    assert str(err) == ("5 task(s) and 0 timed action(s) never completed: "
                        "POOL#1, POOL#2, POOL#3, ...")
    for key in ("POOL#1", "THREAD#1"):
        assert session.cancel(key) is CancelOutcome.SIGNALLED_RUNNING
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


@CLOCKS
def test_drained_session_refuses_submissions(clock):
    session = ProfilerSession(clock=clock())
    pool = session.pool_executor(core_size=1, max_size=1)
    looper = session.serial_executor()
    session.register_service("svc")
    pool.submit(Task("early", synthetic_duration_ns=1 * MS))
    session.drain(timeout_s=10)
    late = Task("late", synthetic_duration_ns=1 * MS)
    for submit in (lambda: pool.submit(late),
                   lambda: looper.submit(late),
                   lambda: session.dispatch_service("svc", late),
                   lambda: session.call_at(0, lambda: None)):
        with pytest.raises(SessionClosed):
            submit()


@CLOCKS
def test_closed_session_gains_no_events(clock):
    """After a drain that timed out, nothing may make a new worker: a
    second drain returns the same trace as the first."""
    real = clock is RealMonotonicClock
    started = threading.Event()
    threads = []

    def stuck(token):
        threads.append(threading.current_thread())
        started.set()
        while not token.is_cancelled():
            time.sleep(0.001)

    session = ProfilerSession(clock=clock())
    key = session.spawn_thread(Task("stuck", body=stuck if real else None,
                                    synthetic_duration_ns=None,
                                    cancellation_check=True))
    assert not real or started.wait(timeout=10)
    with pytest.raises(DrainTimeout) as first:
        session.drain(timeout_s=0.05)
    for make in (session.serial_executor,
                 lambda: session.register_service("svc"),
                 lambda: session.facade.execute_default(Task("late"))):
        with pytest.raises(SessionClosed):
            make()
    with pytest.raises(DrainTimeout) as second:
        session.drain(timeout_s=0.05)
    assert len(first.value.session.events) == 3
    assert second.value.session.events == first.value.session.events
    assert session.cancel(key) is CancelOutcome.SIGNALLED_RUNNING
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


ENTRY_POINTS = ("spawn_thread", "looper", "aquery", "pool", "execute_default",
                "execute_on", "dispatch_service")
GROWS_A_WORKER = {"spawn_thread", "pool", "execute_on"}


@CLOCKS
def test_every_entry_point_attributes_its_task_to_the_caller(clock):
    """A submission's Schedule names the thread that made it, and a worker
    it grows names that thread as its Spawn parent, whoever the caller:
    the main thread, a system thread, a task body or, on the real clock,
    a thread the session has never seen."""
    real = clock is RealMonotonicClock
    session = ProfilerSession(clock=clock())
    looper = session.serial_executor()
    aquery = session.serial_executor(Mechanism.ASYNC_QUERY)
    session.register_service("svc")
    callers = {}

    def submit_everywhere(caller):
        def task(entry):
            return Task(f"{caller}:{entry}", synthetic_duration_ns=1 * MS)

        session.spawn_thread(task("spawn_thread"))
        looper.submit(task("looper"))
        aquery.submit(task("aquery"))
        session.pool_executor(core_size=1, max_size=1).submit(task("pool"))
        session.facade.execute_default(task("execute_default"))
        session.facade.execute_on(session.pool_executor(core_size=1, max_size=1),
                                  task("execute_on"))
        session.dispatch_service("svc", task("dispatch_service"))
        # Read afterwards, so a foreign caller's identity is the one its
        # first submission drew.
        callers[caller] = session.current_thread()

    submit_everywhere("main")
    with session.system_thread():
        submit_everywhere("system")
    session.pool_executor(core_size=1, max_size=1).submit(Task(
        "host", body=lambda token: submit_everywhere("body"),
        synthetic_duration_ns=0))
    if real:
        foreign = threading.Thread(target=submit_everywhere, args=("foreign",))
        foreign.start()
        foreign.join(timeout=10)
    trace = session.drain(timeout_s=10)

    labels = {ev.task_key: ev.detail for ev in trace.events
              if ev.kind is EventKind.SCHEDULE}
    scheduled_by = {ev.detail: ev.thread for ev in trace.events
                    if ev.kind is EventKind.SCHEDULE}
    started_on = {labels[ev.task_key]: ev.thread for ev in trace.events
                  if ev.kind is EventKind.START}
    spawned = {ev.thread.thread_id: ev.thread for ev in trace.events
               if ev.kind is EventKind.SPAWN}
    assert sorted(callers) == sorted(["main", "system", "body"]
                                     + (["foreign"] if real else []))
    assert callers["main"] == session.main_thread
    assert callers["body"] == started_on["host"]
    for caller, ident in callers.items():
        for entry in ENTRY_POINTS:
            label = f"{caller}:{entry}"
            assert scheduled_by[label] == ident, label
            if entry in GROWS_A_WORKER:
                worker = spawned[started_on[label].thread_id]
                assert worker.parent_thread_id == ident.thread_id, label
    if real:
        ident = callers["foreign"]
        assert ident.parent_thread_id is None and not ident.is_main
        others = {i.thread_id for label, i in scheduled_by.items()
                  if not label.startswith("foreign:")}
        assert ident.thread_id not in others | set(spawned)


def _contexts_of_nested_sites(clock):
    """Runs a task body and a timed action that each submit, twice, each
    time drained by ``wait_idle`` from another caller; returns each label's
    set of context frames."""
    session = ProfilerSession(clock=clock())
    inner = session.pool_executor(core_size=1, max_size=1)
    outer = session.pool_executor(core_size=1, max_size=1)

    def body(token):
        inner.submit(Task("from-body", synthetic_duration_ns=1 * MS))

    def action():
        inner.submit(Task("from-action", synthetic_duration_ns=1 * MS))

    def submit_both():
        outer.submit(Task("host", body=body, synthetic_duration_ns=1 * MS))
        session.call_at(session.clock.now_ns(), action)

    def first():
        submit_both()
        assert session.wait_idle(10)

    def second():
        submit_both()
        assert session.wait_idle(10)

    first()
    second()
    trace = session.drain(timeout_s=10)
    contexts = defaultdict(set)
    for ev in trace.events:
        if ev.kind is EventKind.SCHEDULE:
            contexts[ev.detail].add(ev.context.frames)
    return contexts


def test_each_site_gets_one_context_on_both_engines():
    """A capture ends at the engine frame that ran the submitter: a site
    in a task body or a timed action has one context, whoever waited and
    whichever engine ran it, and it names only the site's own frame."""
    virtual = _contexts_of_nested_sites(VirtualClock)
    real = _contexts_of_nested_sites(RealMonotonicClock)
    for label, symbol in (("from-body", "body"), ("from-action", "action")):
        (frames,) = virtual[label]
        assert real[label] == {frames}
        assert [frame.split(":")[1] for frame in frames] == [symbol]
