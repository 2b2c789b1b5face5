"""Event/record vocabulary shared by the runtime, codec, and analyzer.

Everything here is an immutable value. ``TaskEvent`` and ``TaskRecord``
are named tuples, because traces hold one per event and per task and a
tuple is built in half the time of a frozen dataclass. The only
nontrivial operation is ``correlate``, which folds an ordered event
stream into per-task records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple


class Mechanism(enum.Enum):
    """The six submission mechanisms the runtime instruments; each value
    is the mechanism's wire tag."""

    NEW_THREAD = "THREAD"
    HANDLER_LOOPER = "LOOPER"
    ASYNC_QUERY = "AQUERY"
    POOL_EXECUTOR = "POOL"
    ASYNC_FACADE = "AFACADE"
    SERIAL_SERVICE = "SERVICE"


class EventKind(enum.Enum):
    SPAWN = "SPAWN"
    SCHEDULE = "SCHED"
    START = "START"
    END = "END"
    CANCEL = "CANCEL"


@dataclass(frozen=True)
class ThreadIdentity:
    """A thread within one trace session.

    ``parent_thread_id`` is the creator thread, when known; the main
    thread is the unique thread with ``is_main`` set and no parent.
    """

    thread_id: int
    parent_thread_id: int | None = None
    is_main: bool = False

    def __post_init__(self) -> None:
        if self.thread_id < 0:
            raise ValueError("thread_id must be non-negative")
        if self.is_main and self.parent_thread_id is not None:
            raise ValueError("main thread cannot have a parent")


@dataclass(frozen=True)
class ExecutionContext:
    """Call frames captured at schedule time, innermost first.

    Each frame is a ``unit:symbol:line-or-0`` string; grouping compares
    the full frame list.
    """

    frames: tuple[str, ...]


class TaskEvent(NamedTuple):
    """One timestamped lifecycle event for a task on a thread.

    ``timestamp_ns`` is monotonic nanoseconds since session start.
    Schedule events carry the submission context; Spawn events announce
    a new thread and carry neither mechanism nor task key.
    """

    timestamp_ns: int
    kind: EventKind
    mechanism: Mechanism | None
    task_key: str | None
    thread: ThreadIdentity
    context: ExecutionContext | None = None
    detail: str | None = None


class TaskRecord(NamedTuple):
    """A correlated task: request, start, and end times plus identity."""

    task_key: str
    mechanism: Mechanism
    context: ExecutionContext
    requested_by: ThreadIdentity
    request_ns: int
    executed_on: ThreadIdentity | None = None
    start_ns: int | None = None
    end_ns: int | None = None
    cancelled: bool = False


@dataclass(frozen=True)
class TraceSession:
    """A complete run: header info plus the ordered event list."""

    session_id: str
    config_label: str
    clock_origin_ns: int
    events: tuple[TaskEvent, ...]


class CorrelationError(Exception):
    """Malformed event stream handed to ``correlate``."""


class DanglingEvent(CorrelationError):
    """Start/End/Cancel with no prior Schedule for its key."""


class DuplicateSchedule(CorrelationError):
    """The same (mechanism, task_key) scheduled twice."""


class OrderViolation(CorrelationError):
    """Lifecycle events out of order for one key (e.g. End before Start)."""


def queuing_time(record: TaskRecord) -> int | None:
    """Nanoseconds between scheduling and start, or None if never started."""
    if record.start_ns is None:
        return None
    return record.start_ns - record.request_ns


def latency(record: TaskRecord) -> int | None:
    """Nanoseconds between start and end, or None if not finished."""
    if record.start_ns is None or record.end_ns is None:
        return None
    return record.end_ns - record.start_ns


def correlate(events: list[TaskEvent] | tuple[TaskEvent, ...]) -> list[TaskRecord]:
    """Fold an ordered event stream into one record per scheduled task.

    Raises a ``CorrelationError`` subclass on unmatched or out-of-order
    events; nothing is silently dropped. Records come back sorted by
    request time with submission order as the stable tie-break.

    Each event is unpacked once, and each open task is a list in
    ``TaskRecord`` field order that becomes its record through
    ``tuple.__new__``. A task is closed once it has an end time or is
    cancelled.
    """
    SPAWN, SCHEDULE, START, END, CANCEL = (
        EventKind.SPAWN, EventKind.SCHEDULE, EventKind.START, EventKind.END,
        EventKind.CANCEL)
    # Tasks are keyed by (task_key, mechanism). Members are singletons, so
    # id() stands in for the mechanism: Enum.__hash__ is a Python-level call.
    states: dict[tuple[str | None, int], list] = {}
    for ts, kind, mech, key, thread, context, _ in events:
        if kind is SPAWN:
            continue
        task = (key, id(mech))
        if kind is SCHEDULE:
            if task in states:
                raise DuplicateSchedule(f"task {key!r} scheduled twice")
            if context is None:
                raise CorrelationError(f"Schedule for {key!r} has no context")
            states[task] = [key, mech, context, thread, ts, None, None, None, False]
            continue
        st = states.get(task)
        if st is None:
            raise DanglingEvent(f"{kind.name} for unknown task {key!r}")
        # st: task_key, mechanism, context, requested_by, request_ns,
        #     executed_on, start_ns, end_ns, cancelled
        if kind is START:
            if st[6] is not None or st[8]:  # started, or closed unstarted
                raise OrderViolation(f"unexpected Start for {key!r}")
            if ts < st[4]:
                raise OrderViolation(f"Start precedes Schedule for {key!r}")
            st[5] = thread
            st[6] = ts
        elif kind is END:
            if st[7] is not None or st[8]:
                raise OrderViolation(f"End after close for {key!r}")
            if st[6] is None:
                raise OrderViolation(f"End before Start for {key!r}")
            if ts < st[6]:
                raise OrderViolation(f"End precedes Start for {key!r}")
            st[7] = ts
        elif kind is CANCEL:
            if st[7] is not None or st[8]:
                raise OrderViolation(f"Cancel after close for {key!r}")
            if st[6] is not None:
                if ts < st[6]:
                    raise OrderViolation(f"Cancel precedes Start for {key!r}")
                # A running task closed by cancellation: its running time counts.
                st[7] = ts
            st[8] = True
    new = tuple.__new__
    # states keeps Schedule order and sorted is stable: that is the tie-break.
    return [new(TaskRecord, st) for st in sorted(states.values(), key=itemgetter(4))]
