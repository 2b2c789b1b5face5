"""Behavioral tests for the instrumented runtime under the virtual clock,
plus a few real-clock sanity checks."""

import random
import sys
import threading
import time

import pytest

from asyncscope.clock import RealMonotonicClock, VirtualClock
from asyncscope.runtime import (
    CancelOutcome,
    DrainTimeout,
    PoolShutDown,
    ProfilerSession,
    QueueFull,
    SessionClosed,
    Task,
    UnknownService,
    UnknownTask,
    WorkerDead,
    session_run,
)
from asyncscope.trace_model import EventKind, Mechanism, correlate, latency, queuing_time

MS = 1_000_000


def _run(workload, **kwargs):
    return session_run(workload, clock=VirtualClock(), **kwargs)


def _records(trace):
    return correlate(trace.events)


def test_empty_workload():
    trace = _run(lambda session: None)
    assert trace.events == ()


def test_spawn_thread_runs_immediately():
    trace = _run(lambda s: s.spawn_thread(Task("t", synthetic_duration_ns=5 * MS)))
    (rec,) = _records(trace)
    assert rec.mechanism is Mechanism.NEW_THREAD
    assert queuing_time(rec) == 0
    assert latency(rec) == 5 * MS


def test_three_spawns_run_in_parallel():
    def workload(s):
        for i in range(3):
            s.spawn_thread(Task(f"t{i}", synthetic_duration_ns=10 * MS))

    records = _records(_run(workload))
    assert [queuing_time(r) for r in records] == [0, 0, 0]
    assert [latency(r) for r in records] == [10 * MS] * 3
    assert len({r.executed_on.thread_id for r in records}) == 3


def test_spawn_after_close_rejected():
    session = ProfilerSession(clock=VirtualClock())
    session.drain()
    with pytest.raises(SessionClosed):
        session.spawn_thread(Task("late"))


def test_serial_executor_fifo_queuing():
    def workload(s):
        looper = s.serial_executor()
        looper.submit(Task("a", synthetic_duration_ns=10 * MS))
        looper.submit(Task("b", synthetic_duration_ns=10 * MS))

    records = _records(_run(workload))
    assert [queuing_time(r) for r in records] == [0, 10 * MS]
    assert records[0].mechanism is Mechanism.HANDLER_LOOPER


@pytest.mark.parametrize("k,d_ms", [(1, 5), (4, 10), (7, 3)])
def test_serial_queue_closed_form(k, d_ms):
    """i-th of k equal back-to-back tasks waits exactly (i-1)*d."""

    def workload(s):
        looper = s.serial_executor()
        for i in range(k):
            looper.submit(Task(f"t{i}", synthetic_duration_ns=d_ms * MS))

    records = _records(_run(workload))
    assert [queuing_time(r) for r in records] == [i * d_ms * MS for i in range(k)]


def test_serial_executor_never_overlaps():
    def workload(s):
        looper = s.serial_executor()
        for i in range(5):
            looper.submit(Task(f"t{i}", synthetic_duration_ns=7 * MS))

    records = _records(_run(workload))
    for prev, cur in zip(records, records[1:]):
        assert cur.start_ns >= prev.end_ns


def test_closed_serial_executor_rejects():
    def workload(s):
        looper = s.serial_executor()
        looper.close()
        with pytest.raises(WorkerDead):
            looper.submit(Task("x"))

    _run(workload)


def test_pool_overflow_queues_third_task():
    def workload(s):
        pool = s.pool_executor(core_size=2, max_size=2)
        for i in range(3):
            pool.submit(Task(f"t{i}", synthetic_duration_ns=10 * MS))

    records = _records(_run(workload))
    assert [queuing_time(r) for r in records] == [0, 0, 10 * MS]


def test_pool_under_capacity_no_queuing():
    def workload(s):
        pool = s.pool_executor(core_size=3, max_size=3)
        for i in range(3):
            pool.submit(Task(f"t{i}", synthetic_duration_ns=10 * MS))

    records = _records(_run(workload))
    assert [queuing_time(r) for r in records] == [0, 0, 0]


def test_bounded_pool_queue_overflows():
    def workload(s):
        pool = s.pool_executor(core_size=2, max_size=2, queue_bound=1)
        for i in range(3):
            pool.submit(Task(f"t{i}", synthetic_duration_ns=10 * MS))
        with pytest.raises(QueueFull):
            pool.submit(Task("overflow", synthetic_duration_ns=10 * MS))

    _run(workload)


def test_shut_down_pool_rejects():
    def workload(s):
        pool = s.pool_executor(core_size=1, max_size=1)
        pool.shut_down()
        with pytest.raises(PoolShutDown):
            pool.submit(Task("x"))

    _run(workload)


def test_pool_workers_are_reused():
    def workload(s):
        pool = s.pool_executor(core_size=1, max_size=1)
        for i in range(4):
            pool.submit(Task(f"t{i}", synthetic_duration_ns=1 * MS))

    trace = _run(workload)
    records = _records(trace)
    assert len({r.executed_on.thread_id for r in records}) == 1
    spawns = [ev for ev in trace.events if ev.kind is EventKind.SPAWN]
    assert len(spawns) == 1


def test_facade_default_serializes():
    def workload(s):
        for i in range(3):
            s.facade.execute_default(Task(f"t{i}", synthetic_duration_ns=300 * MS))

    records = _records(_run(workload))
    assert [queuing_time(r) for r in records] == [0, 300 * MS, 600 * MS]
    assert max(r.end_ns for r in records) == 900 * MS
    assert all(r.mechanism is Mechanism.ASYNC_FACADE for r in records)


def test_facade_explicit_pool_parallelizes():
    def workload(s):
        pool = s.pool_executor(core_size=3, max_size=3)
        for i in range(3):
            s.facade.execute_on(pool, Task(f"t{i}", synthetic_duration_ns=300 * MS))

    records = _records(_run(workload))
    assert [queuing_time(r) for r in records] == [0, 0, 0]
    assert max(r.end_ns for r in records) == 300 * MS
    assert all(r.mechanism is Mechanism.ASYNC_FACADE for r in records)


def test_single_task_same_timing_both_facade_paths():
    def default_path(s):
        s.facade.execute_default(Task("only", synthetic_duration_ns=20 * MS))

    def pool_path(s):
        pool = s.pool_executor(core_size=1, max_size=1)
        s.facade.execute_on(pool, Task("only", synthetic_duration_ns=20 * MS))

    (a,) = _records(_run(default_path))
    (b,) = _records(_run(pool_path))
    assert (queuing_time(a), latency(a)) == (queuing_time(b), latency(b))


def test_service_dispatch_serializes_per_service():
    def workload(s):
        s.register_service("sync")
        s.dispatch_service("sync", Task("a", synthetic_duration_ns=5 * MS))
        s.dispatch_service("sync", Task("b", synthetic_duration_ns=5 * MS))

    records = _records(_run(workload))
    assert [queuing_time(r) for r in records] == [0, 5 * MS]
    assert records[0].task_key.startswith("SERVICE:sync#")
    assert records[0].mechanism is Mechanism.SERIAL_SERVICE


def test_distinct_services_run_concurrently():
    def workload(s):
        s.register_service("a")
        s.register_service("b")
        s.dispatch_service("a", Task("x", synthetic_duration_ns=5 * MS))
        s.dispatch_service("b", Task("y", synthetic_duration_ns=5 * MS))

    records = _records(_run(workload))
    assert [queuing_time(r) for r in records] == [0, 0]


def test_unregistered_service_rejected():
    def workload(s):
        with pytest.raises(UnknownService):
            s.dispatch_service("ghost", Task("x"))

    _run(workload)


def test_cancel_before_dequeue():
    outcomes = []

    def workload(s):
        looper = s.serial_executor()
        looper.submit(Task("running", synthetic_duration_ns=50 * MS))
        queued = looper.submit(Task("queued", synthetic_duration_ns=50 * MS))
        outcomes.append(s.cancel(queued))

    records = _records(_run(workload))
    assert outcomes == [CancelOutcome.REMOVED_FROM_QUEUE]
    queued = [r for r in records if r.task_key.endswith("#2")][0]
    assert queued.cancelled and queued.start_ns is None


def test_cancel_after_handoff_before_start():
    """A task handed to a worker but cancelled before it began is skipped,
    and its worker takes the next queued task at once."""
    outcomes = []

    def workload(s):
        pool = s.pool_executor(core_size=1, max_size=1)
        handed = pool.submit(Task("handed", synthetic_duration_ns=5 * MS))
        pool.submit(Task("next", synthetic_duration_ns=5 * MS))
        outcomes.append(s.cancel(handed))

    trace = _run(workload)
    handed, following = _records(trace)
    assert outcomes == [CancelOutcome.REMOVED_FROM_QUEUE]
    assert handed.cancelled and handed.start_ns is None
    assert (following.start_ns, following.end_ns) == (0, 5 * MS)
    assert sum(ev.kind is EventKind.SPAWN for ev in trace.events) == 1


def test_cancel_checking_task_stops_at_next_poll():
    outcomes = []

    def workload(s):
        key = s.spawn_thread(Task(
            "checks", synthetic_duration_ns=10 * MS,
            cancellation_check=True, check_interval_ns=1 * MS,
        ))
        s.call_at(2 * MS, lambda: outcomes.append(s.cancel(key)))

    (rec,) = _records(_run(workload))
    assert outcomes == [CancelOutcome.SIGNALLED_RUNNING]
    assert rec.cancelled
    assert rec.end_ns <= 3 * MS


def test_cancel_non_checking_task_runs_to_completion():
    outcomes = []

    def workload(s):
        key = s.spawn_thread(Task("stubborn", synthetic_duration_ns=10 * MS))
        s.call_at(2 * MS, lambda: outcomes.append(s.cancel(key)))

    (rec,) = _records(_run(workload))
    assert outcomes == [CancelOutcome.NOT_CANCELLABLE]
    assert not rec.cancelled
    assert latency(rec) == 10 * MS


def test_cancel_finished_task_too_late():
    outcomes = []

    def workload(s):
        key = s.spawn_thread(Task("quick", synthetic_duration_ns=1 * MS))
        s.call_at(5 * MS, lambda: outcomes.append(s.cancel(key)))

    _run(workload)
    assert outcomes == [CancelOutcome.TOO_LATE_FINISHED]


def test_cancel_unknown_task_rejected():
    def workload(s):
        with pytest.raises(UnknownTask):
            s.cancel("POOL#99")

    _run(workload)


def test_drain_timeout_carries_partial_session():
    session = ProfilerSession(clock=VirtualClock())
    session.spawn_thread(Task("forever", synthetic_duration_ns=None))
    with pytest.raises(DrainTimeout) as exc_info:
        session.drain(timeout_s=1.0)
    assert str(exc_info.value) == (
        "1 task(s) and 0 timed action(s) never completed: THREAD#1")
    assert exc_info.value.stuck == (
        ("THREAD#1", "forever", Mechanism.NEW_THREAD, "running", 0),)
    (rec,) = correlate(exc_info.value.session.events)
    assert rec.end_ns is None and rec.start_ns is not None


@pytest.mark.parametrize("emit", [True, False], ids=["emit", "no-emit"])
def test_drain_timeout_says_when_each_task_got_stuck(emit):
    """A running task is stuck since its Start, not its Schedule; a queued
    one since its Schedule. Without events there is no log to read."""
    session = ProfilerSession(clock=VirtualClock(), emit_events=emit)
    pool = session.pool_executor(core_size=1, max_size=1)
    for t_ns, task in ((1 * MS, Task("first", synthetic_duration_ns=3 * MS)),
                       (2 * MS, Task("forever", synthetic_duration_ns=None)),
                       (5 * MS, Task("queued", synthetic_duration_ns=1 * MS))):
        session.call_at(t_ns, lambda task=task: pool.submit(task))
    with pytest.raises(DrainTimeout) as exc_info:
        session.drain(timeout_s=1.0)
    assert exc_info.value.stuck == (
        ("POOL#2", "forever", Mechanism.POOL_EXECUTOR, "running",
         4 * MS if emit else None),
        ("POOL#3", "queued", Mechanism.POOL_EXECUTOR, "queued",
         5 * MS if emit else None),
    )


def test_negative_synthetic_duration_rejected():
    with pytest.raises(ValueError, match="synthetic_duration_ns"):
        Task("t", synthetic_duration_ns=-5 * MS)


@pytest.mark.parametrize("kwargs, message", [
    ({"label": ""}, "task label must be non-empty"),
    ({"label": "t", "check_interval_ns": 0}, "check_interval_ns must be positive"),
    ({"label": "t", "check_interval_ns": -MS}, "check_interval_ns must be positive"),
])
def test_bad_task_rejected(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Task(**kwargs)


@pytest.mark.parametrize("sizes, message", [
    ((0, 1, None), "need 1 <= core_size <= max_size"),
    ((2, 1, None), "need 1 <= core_size <= max_size"),
    ((1, 2, 0), "queue_bound must be positive or None"),
])
def test_bad_pool_bounds_rejected(sizes, message):
    session = ProfilerSession(clock=VirtualClock())
    with pytest.raises(ValueError, match=f"^{message}$"):
        session.pool_executor(*sizes)


def test_serial_executor_refuses_a_pool_mechanism():
    session = ProfilerSession(clock=VirtualClock())
    with pytest.raises(ValueError, match="is not a serial-queue mechanism$"):
        session.serial_executor(Mechanism.POOL_EXECUTOR)


def test_virtual_time_never_runs_backwards():
    """A timed action cannot be set before the session's now, and the
    clock itself refuses to move back."""
    session = ProfilerSession(clock=VirtualClock())
    errors = []

    def late():
        with pytest.raises(ValueError, match="^call_at target is in the past$"):
            session.call_at(4 * MS, lambda: None)
        errors.append("refused")

    session.call_at(5 * MS, late)
    session.drain()
    assert errors == ["refused"] and session.clock.now_ns() == 5 * MS
    with pytest.raises(ValueError, match="^virtual time moved backwards$"):
        session.clock._advance_to(4 * MS)
    assert session.clock.now_ns() == 5 * MS


def test_negative_keep_alive_rejected():
    session = ProfilerSession(clock=VirtualClock())
    with pytest.raises(ValueError, match="keep_alive_ns"):
        session.pool_executor(core_size=1, max_size=2, keep_alive_ns=-10 * MS)


def test_capture_depth_is_not_a_parameter():
    """Every session captures to DEFAULT_CAPTURE_DEPTH user frames."""
    with pytest.raises(TypeError, match="capture_depth"):
        ProfilerSession(clock=VirtualClock(), capture_depth=3)


def test_system_thread_outside_lineage():
    def workload(s):
        with s.system_thread():
            s.spawn_thread(Task("background", synthetic_duration_ns=1 * MS))

    trace = _run(workload)
    (rec,) = _records(trace)
    assert not rec.requested_by.is_main
    assert rec.requested_by.parent_thread_id is None


def test_context_captured_at_submission_site():
    def workload(s):
        s.spawn_thread(Task("t", synthetic_duration_ns=1 * MS))

    trace = _run(workload)
    (sched,) = [ev for ev in trace.events if ev.kind is EventKind.SCHEDULE]
    innermost = sched.context.frames[0]
    module, symbol, line = innermost.rsplit(":", 2)
    assert module == __name__
    assert symbol == "workload"
    assert int(line) > 0


def test_deterministic_traces_across_runs():
    def workload(s):
        pool = s.pool_executor(core_size=2, max_size=3)
        for i in range(6):
            pool.submit(Task(f"t{i}", synthetic_duration_ns=(i + 1) * MS))

    traces = [
        session_run(workload, clock=VirtualClock(), session_id="det")
        for _ in range(3)
    ]
    assert traces[0] == traces[1] == traces[2]


def test_real_clock_end_to_end():
    def workload(s):
        pool = s.pool_executor(core_size=2, max_size=2)
        for i in range(4):
            pool.submit(Task(f"t{i}", synthetic_duration_ns=2 * MS))
        looper = s.serial_executor()
        looper.submit(Task("msg", synthetic_duration_ns=1 * MS))

    trace = session_run(workload, clock=RealMonotonicClock())
    records = _records(trace)
    assert len(records) == 5
    for rec in records:
        assert rec.request_ns <= rec.start_ns <= rec.end_ns


def test_real_clock_cancel_checking_task():
    outcomes = []

    def workload(s):
        key = s.facade.execute_default(Task(
            "slow", synthetic_duration_ns=5_000 * MS,
            cancellation_check=True, check_interval_ns=1 * MS,
        ))
        s.call_at(20 * MS, lambda: outcomes.append(s.cancel(key)))

    trace = session_run(workload, clock=RealMonotonicClock())
    (rec,) = _records(trace)
    assert outcomes == [CancelOutcome.SIGNALLED_RUNNING]
    assert rec.cancelled
    assert rec.end_ns < 5_000 * MS


def test_real_call_at_runs_on_one_timekeeper_thread():
    """200 timed actions, 20 due at each of 10 times, given out of due
    order: one extra thread runs them all, in due order and FIFO among
    equal times, and drain ends it."""
    session = ProfilerSession(clock=RealMonotonicClock())
    before = threading.active_count()
    ran = []
    threads = set()
    counts = []

    def action(due, i):
        ran.append((due, i))
        threads.add(threading.current_thread())
        counts.append(threading.active_count())

    # An action due first holds the timekeeper until all 200 are posted:
    # on a loaded host, posting can outlast their 100 ms lead.
    posted = threading.Event()
    base = session.clock.now_ns() + 100 * MS
    session.call_at(base - MS, lambda: posted.wait(timeout=10))
    for i in range(200):
        due = base + (9 - i % 10) * MS
        session.call_at(due, lambda due=due, i=i: action(due, i))
    posted.set()
    assert threading.active_count() <= before + 1
    session.drain(timeout_s=10)
    assert ran == sorted(ran) and len(ran) == 200
    assert max(counts) <= before + 1
    (thread,) = threads
    assert not thread.is_alive()
    assert threading.active_count() <= before


def test_real_concurrent_call_at_share_one_timekeeper():
    session = ProfilerSession(clock=RealMonotonicClock())
    ran = []

    def schedule():
        for _ in range(50):
            session.call_at(session.clock.now_ns() + 5 * MS,
                            lambda: ran.append(threading.current_thread()))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        submitters = [threading.Thread(target=schedule) for _ in range(4)]
        for t in submitters:
            t.start()
        for t in submitters:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in submitters)
    session.drain(timeout_s=10)
    assert len(ran) == 200 and len(set(ran)) == 1


def test_real_drain_waits_for_pending_call_at(monkeypatch):
    reported = []
    monkeypatch.setattr(threading, "excepthook", reported.append)

    def workload(s):
        s.call_at(300 * MS, lambda: s.spawn_thread(
            Task("late", synthetic_duration_ns=1 * MS)))

    session = ProfilerSession(clock=RealMonotonicClock())
    workload(session)
    begin = time.monotonic()
    with pytest.raises(DrainTimeout) as exc_info:
        session.drain(timeout_s=0.05)
    assert time.monotonic() - begin < 0.5
    assert str(exc_info.value) == "0 task(s) and 1 timed action(s) never completed"
    time.sleep(0.5)
    assert reported == []
    trace = session_run(workload, clock=RealMonotonicClock())
    (rec,) = _records(trace)
    assert rec.end_ns is not None
    assert [ev.detail for ev in trace.events if ev.kind is EventKind.SCHEDULE] == ["late"]


@pytest.mark.parametrize("emit_events", [False, True])
def test_real_concurrent_submitters_draw_unique_keys(emit_events):
    """Pools share the key prefix POOL, so their submitters share a counter."""
    n_threads, per_thread = 8, 4000
    session = ProfilerSession(clock=RealMonotonicClock(), emit_events=emit_events)
    pools = [session.pool_executor(core_size=1, max_size=1) for _ in range(n_threads)]
    keys = [[] for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads, timeout=10)
    task = Task("t", body=lambda token: None)

    def submitter(i):
        barrier.wait()
        keys[i].extend(pools[i].submit(task) for _ in range(per_thread))

    threads = [threading.Thread(target=submitter, args=(i,)) for i in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    trace = session.drain(timeout_s=60)
    all_keys = [k for ks in keys for k in ks]
    assert len(set(all_keys)) == len(all_keys) == n_threads * per_thread
    assert len(correlate(trace.events)) == (len(all_keys) if emit_events else 0)


def test_real_cancel_race_outcomes_match_records():
    """A second thread cancels every key of a 2-worker pool, in random
    order, while the workers run the tasks."""
    n_tasks = 2000
    session = ProfilerSession(clock=RealMonotonicClock())
    pool = session.pool_executor(core_size=2, max_size=2)
    go = threading.Event()
    gate = Task("gate", body=lambda token: go.wait(timeout=10))
    keys = [pool.submit(gate) for _ in range(2)]
    # sleep(0) yields the interpreter lock, so cancels land between tasks.
    task = Task("t", body=lambda token: time.sleep(0))
    keys += [pool.submit(task) for _ in range(n_tasks - 2)]
    order = keys[:]
    random.Random(7).shuffle(order)
    outcomes = {}

    def canceller():
        go.set()
        for key in order:
            outcomes[key] = session.cancel(key)

    thread = threading.Thread(target=canceller)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not thread.is_alive()
    records = {r.task_key: r for r in correlate(session.drain(timeout_s=60).events)}
    assert sorted(records) == sorted(outcomes) == sorted(keys)
    assert {CancelOutcome.REMOVED_FROM_QUEUE,
            CancelOutcome.TOO_LATE_FINISHED} <= set(outcomes.values())
    for key, outcome in outcomes.items():
        rec = records[key]
        if outcome is CancelOutcome.REMOVED_FROM_QUEUE:
            assert rec.cancelled and rec.start_ns is None, key
        else:
            assert outcome in (CancelOutcome.TOO_LATE_FINISHED,
                               CancelOutcome.NOT_CANCELLABLE), (key, outcome)
            assert not rec.cancelled and rec.end_ns is not None, key


def test_real_drain_timeout_carries_partial_session():
    started = threading.Event()
    stuck_threads = []

    def stuck(token):
        stuck_threads.append(threading.current_thread())
        started.set()
        while not token.is_cancelled():
            time.sleep(0.001)

    session = ProfilerSession(clock=RealMonotonicClock())
    pool = session.pool_executor(core_size=2, max_size=2)
    stuck_key = pool.submit(Task("stuck", body=stuck, cancellation_check=True))
    task = Task("t", body=lambda token: None)
    keys = [pool.submit(task) for _ in range(1000)]
    assert started.wait(timeout=10)
    with pytest.raises(DrainTimeout) as exc_info:
        session.drain(timeout_s=0.05)
    records = {r.task_key: r for r in correlate(exc_info.value.session.events)}
    assert sorted(records) == sorted([stuck_key, *keys])
    assert records[stuck_key].start_ns is not None
    assert records[stuck_key].end_ns is None
    assert session.cancel(stuck_key) is CancelOutcome.SIGNALLED_RUNNING
    stuck_threads[0].join(timeout=10)
    assert not stuck_threads[0].is_alive()


def test_real_drain_timeout_does_not_wait_for_stuck_workers():
    started = threading.Semaphore(0)
    stuck_threads = []

    def stuck(token):
        stuck_threads.append(threading.current_thread())
        started.release()
        while not token.is_cancelled():
            time.sleep(0.001)

    session = ProfilerSession(clock=RealMonotonicClock())
    keys = [session.spawn_thread(Task("stuck", body=stuck, cancellation_check=True))
            for _ in range(3)]
    for _ in keys:
        assert started.acquire(timeout=10)
    begin = time.monotonic()
    with pytest.raises(DrainTimeout):
        session.drain(timeout_s=0.05)
    assert time.monotonic() - begin < 0.5
    for key in keys:
        assert session.cancel(key) is CancelOutcome.SIGNALLED_RUNNING
    for thread in stuck_threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
