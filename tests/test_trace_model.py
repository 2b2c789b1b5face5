"""Event correlation and the duration arithmetic built on it."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncscope.trace_model import (
    CorrelationError,
    DanglingEvent,
    DuplicateSchedule,
    EventKind,
    ExecutionContext,
    Mechanism,
    OrderViolation,
    TaskEvent,
    TaskRecord,
    ThreadIdentity,
    correlate,
    latency,
    queuing_time,
)

MAIN = ThreadIdentity(1, None, True)
WORKER = ThreadIdentity(2, 1, False)
CTX = ExecutionContext(("app:main:10",))


def _sched(key, t, mech=Mechanism.POOL_EXECUTOR, thread=MAIN, ctx=CTX):
    return TaskEvent(t, EventKind.SCHEDULE, mech, key, thread, ctx, None)


def _start(key, t, mech=Mechanism.POOL_EXECUTOR, thread=WORKER):
    return TaskEvent(t, EventKind.START, mech, key, thread)


def _end(key, t, mech=Mechanism.POOL_EXECUTOR, thread=WORKER):
    return TaskEvent(t, EventKind.END, mech, key, thread)


def _cancel(key, t, mech=Mechanism.POOL_EXECUTOR, thread=WORKER):
    return TaskEvent(t, EventKind.CANCEL, mech, key, thread)


def test_single_task_durations():
    records = correlate([_sched("a", 100), _start("a", 150), _end("a", 400)])
    assert len(records) == 1
    rec = records[0]
    assert rec.request_ns == 100
    assert queuing_time(rec) == 50
    assert latency(rec) == 250


def test_interleaved_keys_resolve_by_key():
    records = correlate([
        _sched("a", 0), _sched("b", 0),
        _start("b", 10), _start("a", 20),
        _end("b", 30), _end("a", 40),
    ])
    by_key = {r.task_key: r for r in records}
    assert queuing_time(by_key["a"]) == 20
    assert queuing_time(by_key["b"]) == 10


def test_dangling_start_rejected():
    with pytest.raises(DanglingEvent):
        correlate([_start("z", 5)])


def test_duplicate_schedule_rejected():
    with pytest.raises(DuplicateSchedule):
        correlate([_sched("a", 0), _sched("a", 1)])


def test_end_before_start_rejected():
    with pytest.raises(OrderViolation):
        correlate([_sched("a", 0), _end("a", 5)])


def test_timestamp_regression_rejected():
    with pytest.raises(OrderViolation):
        correlate([_sched("a", 100), _start("a", 50)])


@pytest.mark.parametrize("events, message", [
    ([_sched("a", 0), _start("a", 1), _start("a", 2)], "unexpected Start"),
    ([_sched("a", 0), _cancel("a", 1), _start("a", 2)], "unexpected Start"),
    ([_sched("a", 0), _start("a", 1), _end("a", 2), _end("a", 3)],
     "End after close"),
    ([_sched("a", 0), _start("a", 5), _end("a", 4)], "End precedes Start"),
    ([_sched("a", 0), _cancel("a", 1), _cancel("a", 2)], "Cancel after close"),
    ([_sched("a", 0), _start("a", 5), _cancel("a", 4)],
     "Cancel precedes Start"),
], ids=["start-twice", "start-after-cancel", "end-twice", "end-before-start-ts",
        "cancel-twice", "cancel-before-start-ts"])
def test_lifecycle_out_of_order_rejected(events, message):
    with pytest.raises(OrderViolation, match=message):
        correlate(events)


def test_schedule_without_context_rejected():
    with pytest.raises(CorrelationError, match="^Schedule for 'POOL#1' has no context$"):
        correlate([_sched("POOL#1", 0, ctx=None)])


def test_cancel_while_queued_leaves_no_start():
    (rec,) = correlate([_sched("a", 0), _cancel("a", 10)])
    assert rec.cancelled
    assert rec.start_ns is None and rec.end_ns is None
    assert queuing_time(rec) is None and latency(rec) is None


def test_cancel_while_running_counts_latency():
    (rec,) = correlate([_sched("a", 0), _start("a", 5), _cancel("a", 30)])
    assert rec.cancelled
    assert rec.end_ns == 30
    assert latency(rec) == 25


def test_queuing_edge_values():
    (rec,) = correlate([_sched("a", 100), _start("a", 100), _end("a", 100)])
    assert queuing_time(rec) == 0
    (rec,) = correlate([_sched("a", 0), _start("a", 3_000_000_000)])
    assert queuing_time(rec) == 3_000_000_000
    assert latency(rec) is None  # started but unfinished


def test_anr_scale_latency_value():
    (rec,) = correlate([_sched("a", 0), _start("a", 0), _end("a", 10_000_000_000)])
    assert latency(rec) == 10_000_000_000


def _oracle_correlate(events):
    """Brute force: for each scheduled key, scan the stream linearly."""
    keys = []
    for ev in events:
        if ev.kind is EventKind.SCHEDULE:
            keys.append((ev.mechanism, ev.task_key))
    records = []
    for mech, key in keys:
        request = start = end = None
        requested_by = executed_on = None
        cancelled = False
        ctx = None
        for ev in events:
            if (ev.mechanism, ev.task_key) != (mech, key):
                continue
            if ev.kind is EventKind.SCHEDULE:
                request, requested_by, ctx = ev.timestamp_ns, ev.thread, ev.context
            elif ev.kind is EventKind.START:
                start, executed_on = ev.timestamp_ns, ev.thread
            elif ev.kind is EventKind.END:
                end = ev.timestamp_ns
            elif ev.kind is EventKind.CANCEL:
                cancelled = True
                if start is not None:
                    end = ev.timestamp_ns
        records.append(TaskRecord(
            task_key=key, mechanism=mech, context=ctx,
            requested_by=requested_by, request_ns=request,
            executed_on=executed_on, start_ns=start, end_ns=end,
            cancelled=cancelled,
        ))
    records.sort(key=lambda r: (r.request_ns, keys.index((r.mechanism, r.task_key))))
    return records


_SHARED_KEY_MECHANISMS = (Mechanism.POOL_EXECUTOR, Mechanism.SERIAL_SERVICE)


def _random_interleaving(rng, n_tasks):
    """A well-formed stream: per-task lifecycles merged in timestamp order.

    Each task's mechanism is drawn from two, and each mechanism numbers
    its own keys, so one key names a task under each; Spawn events,
    which name no task, fall in between.
    """
    per_task = []
    next_key = dict.fromkeys(_SHARED_KEY_MECHANISMS, 0)
    for _ in range(n_tasks):
        mech = rng.choice(_SHARED_KEY_MECHANISMS)
        key = f"T#{next_key[mech]}"
        next_key[mech] += 1
        t0 = rng.randrange(0, 1000)
        shape = rng.choice(["full", "cancel_queued", "cancel_running", "open"])
        seq = [_sched(key, t0, mech)]
        if shape == "cancel_queued":
            seq.append(_cancel(key, t0 + rng.randrange(0, 100), mech))
        elif shape != "open":
            t1 = t0 + rng.randrange(0, 100)
            seq.append(_start(key, t1, mech))
            closer = _end if shape == "full" else _cancel
            seq.append(closer(key, t1 + rng.randrange(0, 100), mech))
        per_task.append(seq)
    per_task.extend(
        [TaskEvent(rng.randrange(0, 1200), EventKind.SPAWN, None, None,
                   ThreadIdentity(3 + i, 1, False))]
        for i in range(rng.randrange(0, 5)))
    merged = []
    cursors = [0] * len(per_task)
    while any(c < len(s) for c, s in zip(cursors, per_task)):
        candidates = [
            i for i in range(len(per_task)) if cursors[i] < len(per_task[i])
        ]
        # Pick any task whose next event does not precede other streams'
        # already-emitted maximum — simplest: advance the globally earliest.
        i = min(candidates, key=lambda i: per_task[i][cursors[i]].timestamp_ns)
        merged.append(per_task[i][cursors[i]])
        cursors[i] += 1
    return merged


@pytest.mark.parametrize("seed", range(20))
def test_correlate_matches_bruteforce_oracle(seed):
    rng = random.Random(seed)
    events = _random_interleaving(rng, rng.randrange(1, 50))
    assert correlate(events) == _oracle_correlate(events)


def test_start_under_the_other_mechanism_dangles():
    """A key scheduled under one mechanism names no task under another."""
    pool, service = _SHARED_KEY_MECHANISMS
    events = [_sched("T#0", 0, pool), _start("T#0", 1, service)]
    with pytest.raises(DanglingEvent, match="START for unknown task 'T#0'"):
        correlate(events)


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_decomposition_identity(request_ns, queue_ns, run_ns):
    start = request_ns + queue_ns
    end = start + run_ns
    (rec,) = correlate([_sched("a", request_ns), _start("a", start), _end("a", end)])
    assert queuing_time(rec) + latency(rec) == rec.end_ns - rec.request_ns
    assert rec.request_ns <= rec.start_ns <= rec.end_ns


@settings(max_examples=50)
@given(st.data())
def test_records_sorted_by_request_time(data):
    n = data.draw(st.integers(1, 10))
    times = data.draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    events = sorted(
        (_sched(f"k{i}", t) for i, t in enumerate(times)),
        key=lambda ev: ev.timestamp_ns,
    )
    records = correlate(events)
    assert [r.request_ns for r in records] == sorted(times)


def test_thread_identity_validation():
    with pytest.raises(ValueError):
        ThreadIdentity(3, 1, True)  # main thread cannot have a parent
    with pytest.raises(ValueError):
        ThreadIdentity(-1)


def test_context_equality_tracks_frames():
    a = ExecutionContext(("m:f:1", "m:g:2"))
    b = ExecutionContext(("m:f:1", "m:g:2"))
    c = ExecutionContext(("m:f:1", "m:g:3"))
    assert a == b and a != c
