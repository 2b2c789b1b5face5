"""Instrumented asynchronous execution runtime.

Every submission path emits a Schedule event carrying the caller's
captured stack; execution emits Start/End (or Cancel) on the worker.
Each threading style's policy is written once and runs on one of two
engines. Under a virtual clock a single-threaded discrete-event
scheduler drives execution, so traces are byte-identical across runs;
under the real clock each worker is an actual thread.

A session has one lock, which guards every executor's policy state,
every task's status, the task-key counters and the outstanding-task
count, and one event log, a list that every thread appends to. Each
event is built once, as the trace's own ``TaskEvent``; drain copies the
log once and sorts it stably by timestamp, so events at the same time
keep the order in which they were emitted.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import queue
import sys
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from .clock import ClockMode, ClockSource, VirtualClock
from .trace_model import (
    EventKind,
    ExecutionContext,
    Mechanism,
    TaskEvent,
    ThreadIdentity,
    TraceSession,
)

DEFAULT_CAPTURE_DEPTH = 32
DEFAULT_CHECK_INTERVAL_NS = 1_000_000  # 1 virtual ms
DEFAULT_KEEP_ALIVE_NS = 10_000_000  # 10 virtual ms
_STOP_JOIN_S = 1.0  # how long drain waits, in all, for idle workers to end
_STUCK_KEYS_SHOWN = 3  # stuck task keys a DrainTimeout message names

# Modules whose frames are instrumentation plumbing, not user context.
_INTERNAL_MODULES = ("asyncscope.runtime", "asyncscope.clock")


class _InternalTest(dict):
    """Module name -> whether it starts with one of _INTERNAL_MODULES,
    computed on first sight: a dict lookup is cheaper than ``startswith``
    with a tuple of prefixes. A pure function of the name, so one table
    serves every session and thread."""

    def __missing__(self, module: str) -> bool:
        internal = self[module] = module.startswith(_INTERNAL_MODULES)
        return internal


_is_internal = _InternalTest()

# A context whose frames drain fills in: no formatting and no dataclass
# __init__ on the submission path.
_blank_context = partial(object.__new__, ExecutionContext)
# Builds an event as namedtuple's own __new__ does, minus its Python call.
_tuple_new = tuple.__new__
# The kinds logged on a task's path. Reading a member off an Enum class
# goes through EnumType's __getattr__ hook: about 0.1 us a read (Python
# 3.11.7, 2 vCPUs).
_SPAWN, _SCHEDULE, _START, _END, _CANCEL = (
    EventKind.SPAWN, EventKind.SCHEDULE, EventKind.START, EventKind.END,
    EventKind.CANCEL)

# CO_GENERATOR | CO_COROUTINE | CO_ASYNC_GENERATOR: such a frame's caller
# changes each time it resumes, so it is never a capture anchor.
_RESUMABLE = 0x2a0
_NO_ANCHOR = (None, (), 0, None)


class ProfilerError(Exception):
    """Base for runtime errors."""


class SessionClosed(ProfilerError):
    pass


class WorkerDead(ProfilerError):
    pass


class PoolShutDown(ProfilerError):
    pass


class QueueFull(ProfilerError):
    pass


class UnknownService(ProfilerError):
    pass


class UnknownTask(ProfilerError):
    pass


class DrainTimeout(ProfilerError):
    """Drain gave up waiting; carries the partial session, and in ``stuck``
    a ``(key, label, mechanism, "queued" | "running", since_ns)`` tuple for
    each task that never ended, in submission order. ``since_ns`` is the
    session clock's time, as the trace records it, of the task's Schedule
    (queued) or Start (running) event; None when the log holds no such
    event: with ``emit_events=False``, or for a real worker caught between
    taking its task and logging the Start."""

    def __init__(self, message: str, session: TraceSession,
                 stuck: tuple = ()) -> None:
        super().__init__(message)
        self.session = session
        self.stuck = stuck


class CancelOutcome(enum.Enum):
    REMOVED_FROM_QUEUE = "removed-from-queue"
    SIGNALLED_RUNNING = "signalled-running"
    TOO_LATE_FINISHED = "too-late-finished"
    NOT_CANCELLABLE = "not-cancellable"


class CancelToken:
    """Cooperative cancellation flag polled by checking task bodies."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def is_cancelled(self) -> bool:
        return self.cancelled


@dataclass(frozen=True)
class Task:
    """A developer-intended unit of work submitted for async execution.

    Under a virtual clock, ``synthetic_duration_ns`` stands in for real
    running time (None means the task never finishes). ``body``, when
    given, receives a :class:`CancelToken`; bodies of checking tasks are
    expected to poll it roughly every ``check_interval_ns``.
    """

    label: str
    body: object = None  # Callable[[CancelToken], None] | None
    synthetic_duration_ns: int | None = None
    cancellation_check: bool = False
    check_interval_ns: int = DEFAULT_CHECK_INTERVAL_NS

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("task label must be non-empty")
        if self.check_interval_ns <= 0:
            raise ValueError("check_interval_ns must be positive")
        if self.synthetic_duration_ns is not None and self.synthetic_duration_ns < 0:
            raise ValueError("synthetic_duration_ns must be non-negative")


class _TaskState:
    __slots__ = (
        "key", "task", "mechanism", "owner", "status", "token", "start_ns",
        "worker",
    )

    def __init__(self, key: str, task: Task, mechanism: Mechanism,
                 owner: "_Executor") -> None:
        self.key = key
        self.task = task
        self.mechanism = mechanism
        self.owner = owner
        # "queued", "running", "done" or "cancelled"; a DrainTimeout
        # reports the first two as they are.
        self.status = "queued"
        self.token = CancelToken()
        self.start_ns: int | None = None
        self.worker: _Worker | None = None


class _Worker:
    """One worker thread of an executor. The thread engine adds the real
    thread and its mailbox of tasks and timed callbacks."""

    __slots__ = ("ident", "idle_gen", "retired", "mailbox", "thread")

    def __init__(self, ident: ThreadIdentity | None) -> None:
        self.ident = ident
        self.idle_gen = 0  # invalidates stale retirement callbacks
        self.retired = False
        self.mailbox: queue.SimpleQueue | None = None
        self.thread: threading.Thread | None = None


def _synthetic_body(task: Task):
    """Real-mode stand-in body for tasks declared by duration only."""
    duration = task.synthetic_duration_ns

    def body(token: CancelToken) -> None:
        interval_s = task.check_interval_ns / 1e9
        if duration is None:
            while not (task.cancellation_check and token.cancelled):
                time.sleep(interval_s)
            return
        if not task.cancellation_check:
            time.sleep(duration / 1e9)
            return
        deadline = time.monotonic_ns() + duration
        while time.monotonic_ns() < deadline:
            if token.cancelled:
                return
            remaining_s = (deadline - time.monotonic_ns()) / 1e9
            time.sleep(max(0.0, min(interval_s, remaining_s)))

    return body


_SERIAL_MECHANISMS = frozenset({
    Mechanism.HANDLER_LOOPER, Mechanism.ASYNC_QUERY,
    Mechanism.SERIAL_SERVICE, Mechanism.ASYNC_FACADE,
})


class ProfilerSession:
    """One profiled run: executors, event collection, and drain."""

    def __init__(
        self,
        clock: ClockSource | None = None,
        config_label: str = "",
        session_id: str = "session",
        capture_depth: int = DEFAULT_CAPTURE_DEPTH,
        emit_events: bool = True,
        drain_timeout_s: float = 30.0,
    ) -> None:
        if capture_depth < 1:
            raise ValueError("capture_depth must be at least 1")
        self.clock = clock if clock is not None else VirtualClock()
        self.config_label = config_label
        self.session_id = session_id
        self.capture_depth = capture_depth
        self.emit_events = emit_events
        self.drain_timeout_s = drain_timeout_s
        self._closed = False
        self._events: list[TaskEvent] = []
        self._tls = threading.local()
        self._next_tid = itertools.count(1).__next__
        # Guards policy state, task status, key counters and _outstanding.
        # Counting under the lock itself skips Condition's Python-level
        # __enter__/__exit__ on every submission and completion. An RLock,
        # because Condition() over a plain Lock raises and catches three
        # AttributeErrors, a cost paid by every session.
        self._lock = threading.RLock()
        self._quiesce = threading.Condition(self._lock)
        self._key_counters: defaultdict[str, itertools.count] = defaultdict(
            partial(itertools.count, 1))
        self._tasks: dict[str, _TaskState] = {}
        self._outstanding = 0
        # The capture anchor (frame, its callers' triples, capture depth,
        # and the contexts captured through it, keyed by the triples walked
        # below it), the last walk's (id, code) of its second user frame,
        # the number of full walks, the table from each distinct triples
        # tuple to the one ExecutionContext that every Schedule of it
        # carries, and the blank context that the next new tuple takes;
        # see _capture_context. _assemble fills in the frames of the
        # table's contexts and empties it.
        self._anchor = _NO_ANCHOR
        self._second = None
        self._walks = 0
        self._contexts: dict[tuple, ExecutionContext] = {}
        self._blank = _blank_context()
        self._services: dict[str, SerialQueueExecutor] = {}
        self._facade: AsyncFacade | None = None
        if self.clock.mode is ClockMode.VIRTUAL:
            self._engine = _VirtualEngine(self)
        else:
            self._engine = _ThreadEngine(self)
        self._fresh_threads = _Executor(self)
        self.main_thread = ThreadIdentity(self._next_tid(), None, True)
        self._tls.ident = self.main_thread

    # -- thread identities ------------------------------------------------

    def current_thread(self) -> ThreadIdentity:
        ident = getattr(self._tls, "ident", None)
        if ident is None:
            # A foreign thread touched the session; give it an identity.
            ident = ThreadIdentity(self._next_tid(), None, False)
            self._tls.ident = ident
        return ident

    def _new_worker_identity(self, parent: ThreadIdentity) -> ThreadIdentity:
        """Called with the lock held, so a closed session logs no Spawn."""
        if self._closed:
            raise SessionClosed("session is closed")
        ident = ThreadIdentity(self._next_tid(), parent.thread_id, False)
        if self.emit_events:
            self._events.append(_tuple_new(TaskEvent, (
                self.clock.now_ns(), _SPAWN, None, None, ident, None, None)))
        return ident

    @contextmanager
    def system_thread(self):
        """Run the enclosed block under a thread identity outside the main
        thread's lineage (models platform management threads)."""
        ident = ThreadIdentity(self._next_tid(), None, False)
        prev = self.current_thread()
        self._tls.ident = ident
        try:
            yield ident
        finally:
            self._tls.ident = prev

    def _call_as(self, ident: ThreadIdentity, fn, *args) -> None:
        """Call ``fn(*args)`` on this thread under the identity ``ident``;
        what it raises goes to ``threading.excepthook``."""
        tls = self._tls
        prev = getattr(tls, "ident", None)
        tls.ident = ident
        try:
            fn(*args)
        except Exception:
            threading.excepthook(threading.ExceptHookArgs(
                (*sys.exc_info(), threading.current_thread())))
        finally:
            tls.ident = prev

    # -- context capture ---------------------------------------------------

    @property
    def capture_walks(self) -> int:
        """How many context captures walked the stack in full, rather than
        reusing the anchor's callers. Not written to the trace."""
        return self._walks

    def _capture_context(self) -> ExecutionContext:
        """The caller's context: the session's ExecutionContext for its raw
        (module, symbol, line) triples, innermost first.

        Its frames are left empty until drain formats them, to keep the
        submission path cheap. While a plain function frame runs, its
        callers and their lines cannot change, so a loop that submits need
        not walk them again. The session keeps one anchor: a live frame,
        held so that its identity cannot be reused, with its callers'
        triples. A walk whose first or second user frame is the anchor
        takes that frame's own triple and reuses the rest, or, when the
        triples it walked repeat, the context they gave before. Any other
        walk goes to the end, and adopts its second user frame as the
        anchor when the walk before it had the same one; an adopting walk
        takes one user frame more, for the anchor's callers. The session's
        table gives each distinct triples tuple one context, so a repeat
        returns the same object and the triples just built for it die at
        once; a new tuple takes the blank context in one ``setdefault``,
        which hashes the tuple once. Called with the lock held; drain
        releases the anchor and the table.
        """
        depth = self.capture_depth
        anchor, callers, anchor_depth, known = self._anchor
        frames: list = []
        head = 2 if depth > 2 else depth
        f = sys._getframe(2)
        while f is not None and len(frames) < head:
            module = f.f_globals.get("__name__", "?")
            if not _is_internal[module]:
                frames.append((module, f.f_code.co_name, f.f_lineno))
                if f is anchor and depth == anchor_depth:
                    inner = tuple(frames)
                    context = known.get(inner)
                    if context is None:
                        context = inner + callers
                        if len(context) > depth:
                            context = context[:depth]
                        blank = self._blank
                        context = known[inner] = self._contexts.setdefault(
                            context, blank)
                        if context is blank:
                            self._blank = _blank_context()
                    return context
                second = f
            f = f.f_back
        self._walks += 1
        tail = depth
        if len(frames) == 2:
            code = second.f_code
            key = (id(second), code)
            if key == self._second and not code.co_flags & _RESUMABLE:
                # Adopt: a hit on the first user frame needs depth - 1 callers.
                tail = depth + 1
            self._second = key
        while f is not None and len(frames) < tail:
            module = f.f_globals.get("__name__", "?")
            if not _is_internal[module]:
                frames.append((module, f.f_code.co_name, f.f_lineno))
            f = f.f_back
        if not frames:
            frames.append(("<unknown>", "<unknown>", 0))
        context = tuple(frames)
        if tail > depth:
            self._anchor = (second, context[2:], depth, {})
            context = context[:depth]
        blank = self._blank
        context = self._contexts.setdefault(context, blank)
        if context is blank:
            self._blank = _blank_context()
        return context

    # -- task lifecycle ------------------------------------------------------

    def _register_task(self, task: Task, mechanism: Mechanism,
                       requester: ThreadIdentity, key_prefix: str | None,
                       owner: "_Executor") -> _TaskState:
        """Key, record and announce a task that ``requester`` submitted;
        called with the lock held."""
        if self._closed:
            raise SessionClosed("session is closed")
        # _value_, because Enum.value is a Python-level property.
        prefix = key_prefix if key_prefix is not None else mechanism._value_
        state = _TaskState(f"{prefix}#{next(self._key_counters[prefix])}",
                           task, mechanism, owner)
        self._tasks[state.key] = state
        self._outstanding += 1
        if self.emit_events:
            context = self._capture_context()
            self._events.append(_tuple_new(TaskEvent, (
                self.clock.now_ns(), _SCHEDULE, mechanism, state.key,
                requester, context, task.label)))
        return state

    def _begin(self, state: _TaskState, worker: "_Worker") -> bool:
        """Mark a task handed to ``worker`` running, unless it was
        cancelled while it waited."""
        with self._lock:
            if state.status != "queued":
                return False
            state.status = "running"
            state.worker = worker
            state.start_ns = start_ns = self.clock.now_ns()
        if self.emit_events:
            self._events.append(_tuple_new(TaskEvent, (
                start_ns, _START, state.mechanism, state.key,
                worker.ident, None, None)))
        return True

    def _finish(self, state: _TaskState, worker: "_Worker",
                cancelled: bool) -> _TaskState | None:
        """End a running task, as cancelled or done, and return the task
        its worker runs next."""
        with self._lock:
            if cancelled:
                self._settle(state, "cancelled", _CANCEL, worker.ident,
                             "cancelled while running")
            else:
                self._settle(state, "done", _END, worker.ident, None)
            return state.owner._next_task(worker)

    def _skip(self, state: _TaskState, worker: "_Worker") -> _TaskState | None:
        """The task a worker runs next when the one it was handed had been
        cancelled before it began."""
        with self._lock:
            return state.owner._next_task(worker)

    def _settle(self, state: _TaskState, status: str, kind: EventKind,
                thread: ThreadIdentity, detail: str | None) -> None:
        """Give a task its terminal status and last event, and count it
        done; called with the lock held, so the event is in the log before
        wait_idle can see the count reach zero."""
        state.status = status
        if self.emit_events:
            self._events.append(_tuple_new(TaskEvent, (
                self.clock.now_ns(), kind, state.mechanism, state.key, thread,
                None, detail)))
        self._outstanding -= 1
        if self._outstanding == 0:
            self._quiesce.notify_all()

    # -- submission APIs ---------------------------------------------------------

    def spawn_thread(self, task: Task) -> str:
        """Run the task on a brand-new thread (non-reusable threading)."""
        requester = self.current_thread()
        executor = self._fresh_threads
        with self._lock:
            worker = executor._new_worker(requester)
            state = self._register_task(task, Mechanism.NEW_THREAD, requester,
                                        None, executor)
            self._engine.start(state, worker)
        return state.key

    def serial_executor(
        self, mechanism: Mechanism = Mechanism.HANDLER_LOOPER,
    ) -> "SerialQueueExecutor":
        if mechanism not in _SERIAL_MECHANISMS:
            raise ValueError(f"{mechanism} is not a serial-queue mechanism")
        return SerialQueueExecutor(self, mechanism)

    def pool_executor(
        self,
        core_size: int,
        max_size: int,
        queue_bound: int | None = None,
        keep_alive_ns: int = DEFAULT_KEEP_ALIVE_NS,
    ) -> "PoolExecutor":
        return PoolExecutor(self, core_size, max_size, queue_bound, keep_alive_ns)

    @property
    def facade(self) -> "AsyncFacade":
        if self._facade is None:
            self._facade = AsyncFacade(self)
        return self._facade

    def register_service(self, service_name: str) -> None:
        if service_name not in self._services:
            self._services[service_name] = SerialQueueExecutor(
                self, Mechanism.SERIAL_SERVICE, f"SERVICE:{service_name}")

    def dispatch_service(self, service_name: str, task: Task) -> str:
        executor = self._services.get(service_name)
        if executor is None:
            raise UnknownService(f"no service registered as {service_name!r}")
        return executor.submit(task)

    # -- cancellation -------------------------------------------------------------

    def cancel(self, task_key: str) -> CancelOutcome:
        with self._lock:
            state = self._tasks.get(task_key)
            if state is None:
                raise UnknownTask(f"unknown task {task_key!r}")
            if state.status == "running":
                if not state.task.cancellation_check:
                    return CancelOutcome.NOT_CANCELLABLE
                self._engine.signal(state)
                return CancelOutcome.SIGNALLED_RUNNING
            if state.status != "queued":
                return CancelOutcome.TOO_LATE_FINISHED
            try:
                state.owner._pending.remove(state)
            except ValueError:
                pass  # already handed to a worker, which will skip it
            self._settle(state, "cancelled", _CANCEL, self.current_thread(),
                         "cancelled while queued")
            return CancelOutcome.REMOVED_FROM_QUEUE

    # -- timed actions ------------------------------------------------------------

    def call_at(self, t_ns: int, fn) -> None:
        """Run ``fn`` at session time ``t_ns`` under the caller's identity."""
        if self._closed:
            raise SessionClosed("session is closed")
        self._engine.call_at(t_ns, self.current_thread(), fn)

    # -- drain ----------------------------------------------------------------------

    def wait_idle(self, timeout_s: float | None = None) -> bool:
        """Block until all submitted tasks reached a terminal state."""
        return self._engine.wait_idle(timeout_s)

    def drain(self, timeout_s: float | None = None) -> TraceSession:
        """Finish outstanding work, close the session, and assemble the trace.

        Raises :class:`DrainTimeout` (carrying the partial session) when
        tasks never reach a terminal state.
        """
        quiesced = self.wait_idle(
            timeout_s if timeout_s is not None else self.drain_timeout_s
        )
        # No capture runs, or starts, after this step, and what it finds
        # unfinished is what the DrainTimeout names.
        with self._lock:
            self._closed = True
            self._anchor = _NO_ANCHOR
            unfinished = [] if quiesced else [
                (state, state.status) for state in self._tasks.values()
                if state.status in ("queued", "running")]
            actions = self._outstanding - len(unfinished)
        self._engine.stop({state.worker for state, status in unfinished
                           if status == "running"})
        session = self._assemble()
        if not quiesced:
            # Since when, read from the log here, so that the submit path
            # reads no clock for it.
            wanted = {state.key: _START if status == "running" else _SCHEDULE
                      for state, status in unfinished}
            since = {key: ts for ts, kind, _, key, _, _, _ in self._events
                     if wanted.get(key) is kind}
            stuck = tuple((state.key, state.task.label, state.mechanism, status,
                           since.get(state.key)) for state, status in unfinished)
            message = (f"{len(stuck)} task(s) and {actions} timed action(s) "
                       "never completed")
            if stuck:
                keys = ", ".join(key for key, *_ in stuck[:_STUCK_KEYS_SHOWN])
                more = ", ..." if len(stuck) > _STUCK_KEYS_SHOWN else ""
                message += f": {keys}{more}"
            raise DrainTimeout(message, session, stuck)
        return session

    def _assemble(self) -> TraceSession:
        """The log is the trace: its events are handed out as they were
        built, in a stably sorted copy, and only the contexts' frames are
        filled in. No capture follows the first drain, so its table is
        complete, and a later drain finds every context filled in."""
        # One slice is a consistent copy even while real workers append;
        # the stable sort keeps emission order among equal timestamps.
        events = self._events[:]
        events.sort(key=itemgetter(0))
        for triples, context in self._contexts.items():
            object.__setattr__(context, "frames", tuple(
                f"{m}:{s}:{line}" for m, s, line in triples))
        self._contexts = {}
        return TraceSession(
            session_id=self.session_id,
            config_label=self.config_label,
            clock_origin_ns=self.clock.origin_ns,
            events=tuple(events),
        )


# -- executors: each threading style's policy, written once ----------------------


class _Executor:
    """The fresh-thread policy: each task gets a new worker, which retires
    after it. The pending queue is what every policy shares; the policy's
    state is guarded by the session's lock."""

    def __init__(self, session: ProfilerSession) -> None:
        self._session = session
        self._engine = session._engine
        self._lock = session._lock
        self._pending: deque[_TaskState] = deque()

    def _new_worker(self, parent: ThreadIdentity) -> _Worker:
        return _Worker(self._session._new_worker_identity(parent))

    def _next_task(self, worker: _Worker) -> _TaskState | None:
        """What ``worker`` runs next, now that it is free; called with the
        lock held."""
        worker.retired = True
        return None


class _Pool(_Executor):
    """The bounded pool policy, shared by pools and serial queues.

    A submission goes to the longest-idle worker, else to a new worker
    while fewer than ``max_size`` exist, else to the FIFO queue, which
    refuses it with :class:`QueueFull` at ``queue_bound``. A freed
    worker takes the queue's head or goes idle; an idle worker above
    ``core_size`` retires after ``keep_alive_ns``.
    """

    _refusal = (PoolShutDown, "pool executor is shut down")

    def __init__(self, session: ProfilerSession, core_size: int, max_size: int,
                 queue_bound: int | None, keep_alive_ns: int) -> None:
        if core_size < 1 or max_size < core_size:
            raise ValueError("need 1 <= core_size <= max_size")
        if queue_bound is not None and queue_bound < 1:
            raise ValueError("queue_bound must be positive or None")
        if keep_alive_ns < 0:
            raise ValueError("keep_alive_ns must be non-negative")
        super().__init__(session)
        self.core_size = core_size
        self.max_size = max_size
        self.queue_bound = queue_bound
        self.keep_alive_ns = keep_alive_ns
        self._idle: deque[_Worker] = deque()
        self._nworkers = 0
        self._down = False

    def _add_worker(self, parent: ThreadIdentity) -> _Worker:
        self._nworkers += 1
        return self._new_worker(parent)

    def _submit(self, task: Task, mechanism: Mechanism,
                key_prefix: str | None = None) -> str:
        with self._lock:
            if self._down:
                error, message = self._refusal
                raise error(message)
            idle = self._idle
            if not idle and self._nworkers >= self.max_size \
                    and self.queue_bound is not None \
                    and len(self._pending) >= self.queue_bound:
                raise QueueFull("pool pending queue is at its bound")
            requester = self._session.current_thread()
            state = self._session._register_task(task, mechanism, requester,
                                                 key_prefix, self)
            if idle:
                worker = idle.popleft()
                worker.idle_gen += 1
            elif self._nworkers < self.max_size:
                worker = self._add_worker(requester)
            else:
                self._pending.append(state)
                return state.key
            self._engine.start(state, worker)
            return state.key

    def _next_task(self, worker: _Worker) -> _TaskState | None:
        if self._pending:
            return self._pending.popleft()
        worker.idle_gen += 1
        self._idle.append(worker)
        if self._nworkers > self.core_size:
            gen = worker.idle_gen
            self._engine.call_later(worker, self.keep_alive_ns,
                                    lambda: self._retire(worker, gen))
        return None

    def _retire(self, worker: _Worker, gen: int) -> None:
        with self._lock:
            if worker.idle_gen == gen and self._nworkers > self.core_size:
                self._idle.remove(worker)
                self._nworkers -= 1
                worker.retired = True

    def _shut_down(self) -> None:
        """Refuse later submissions with ``_refusal``; queued tasks still run."""
        with self._lock:
            self._down = True


class SerialQueueExecutor(_Pool):
    """Single-worker FIFO queue (looper/handler, query handler, service):
    the pool policy with one worker, spawned at construction, and no
    queue bound."""

    _refusal = (WorkerDead, "serial executor worker is stopped")

    def __init__(self, session: ProfilerSession, mechanism: Mechanism,
                 key_prefix: str | None = None) -> None:
        super().__init__(session, 1, 1, None, 0)
        self.mechanism = mechanism
        self._key_prefix = key_prefix
        with self._lock:
            self._idle.append(self._add_worker(session.current_thread()))

    def submit(self, task: Task) -> str:
        return self._submit(task, self.mechanism, self._key_prefix)

    close = _Pool._shut_down


class PoolExecutor(_Pool):
    """Bounded worker pool with a pending FIFO for overflow.

    Grows a worker (up to ``max_size``) before queueing; workers above
    ``core_size`` retire after ``keep_alive_ns`` of idleness.
    """

    def submit(self, task: Task, *,
               mechanism: Mechanism = Mechanism.POOL_EXECUTOR) -> str:
        return self._submit(task, mechanism)

    shut_down = _Pool._shut_down


class AsyncFacade:
    """Submission facade whose default path serializes every task on one
    shared FIFO; the explicit path targets a caller-supplied pool."""

    def __init__(self, session: ProfilerSession) -> None:
        self._session = session
        self._default_queue: SerialQueueExecutor | None = None

    def execute_default(self, task: Task) -> str:
        if self._default_queue is None:
            self._default_queue = self._session.serial_executor(
                Mechanism.ASYNC_FACADE)
        return self._default_queue.submit(task)

    def execute_on(self, pool: PoolExecutor, task: Task) -> str:
        return pool.submit(task, mechanism=Mechanism.ASYNC_FACADE)


# -- engines: where and when the executors' decisions run -----------------------
#
# Both offer the executors the same two steps: ``start(state, worker)``
# runs a task on a worker, and ``call_later(worker, delay_ns, fn)`` calls
# back on a worker after a delay. When a worker's task ends, or turns out
# cancelled before it began, the executor's ``_next_task`` names the
# worker's next task.


class _VirtualEngine:
    """Discrete-event engine: a heap of timed actions run on the draining
    thread, so traces are byte-identical across runs."""

    def __init__(self, session: ProfilerSession) -> None:
        self._session = session
        self._clock = session.clock
        self._heap: list = []
        self._order = itertools.count().__next__  # FIFO among equal times

    def _post(self, t_ns: int, fn) -> None:
        heapq.heappush(self._heap, (t_ns, self._order(), fn))

    def start(self, state: _TaskState, worker: _Worker) -> None:
        self._post(self._clock.now_ns(), partial(self._run, state, worker))

    def call_later(self, worker: _Worker, delay_ns: int, fn) -> None:
        self._post(self._clock.now_ns() + delay_ns,
                   partial(self._session._call_as, worker.ident, fn))

    def call_at(self, t_ns: int, ident: ThreadIdentity, fn) -> None:
        if t_ns < self._clock.now_ns():
            raise ValueError("call_at target is in the past")
        self._post(t_ns, partial(self._session._call_as, ident, fn))

    def signal(self, state: _TaskState) -> None:
        """End a running checking task at its next poll, unless it
        finishes first."""
        if state.token.cancelled:
            return  # signalled before: that early end comes first
        interval = state.task.check_interval_ns
        elapsed = self._clock.now_ns() - state.start_ns
        checks = max(-(-elapsed // interval), 1)  # next poll, ceil
        early_end = state.start_ns + checks * interval
        duration = state.task.synthetic_duration_ns
        if duration is not None and early_end >= state.start_ns + duration:
            return
        state.token.cancelled = True
        self._post(early_end, partial(self._end, state, state.worker, True))

    def _run(self, state: _TaskState, worker: _Worker) -> None:
        session = self._session
        if not session._begin(state, worker):
            upcoming = session._skip(state, worker)
            if upcoming is not None:
                self.start(upcoming, worker)
            return
        if state.task.body is not None:
            session._call_as(worker.ident, state.task.body, state.token)
        duration = state.task.synthetic_duration_ns
        if duration is None:
            return  # never finishes; surfaces at drain as incomplete
        self._post(state.start_ns + duration, partial(self._end, state, worker, False))

    def _end(self, state: _TaskState, worker: _Worker, cancelled: bool) -> None:
        if not cancelled and state.token.cancelled:
            return  # signalled: the early end replaces the natural one
        upcoming = self._session._finish(state, worker, cancelled)
        if upcoming is not None:
            self.start(upcoming, worker)

    def wait_idle(self, timeout_s: float | None) -> bool:
        heap = self._heap
        while heap:
            t_ns, _, fn = heapq.heappop(heap)
            self._clock._advance_to(t_ns)
            fn()
        return self._session._outstanding == 0

    def stop(self, busy: set) -> None:
        pass


class _ThreadEngine:
    """Real engine: one thread per worker, running each task its executor
    hands it, on the real clock. Timed actions run on one extra worker,
    the timekeeper, and count as outstanding until they have run."""

    def __init__(self, session: ProfilerSession) -> None:
        self._session = session
        self._clock = session.clock
        self._order = itertools.count().__next__  # FIFO among equal times
        self._timekeeper = _Worker(None)
        self._live: set[_Worker] = set()

    def start(self, item, worker: _Worker) -> None:
        if worker.thread is None:
            worker.mailbox = queue.SimpleQueue()
            worker.thread = threading.Thread(target=self._loop, args=(worker,),
                                             daemon=True)
            self._live.add(worker)
            worker.thread.start()
        worker.mailbox.put(item)  # a task, or a callback (due, order, fn)

    def call_later(self, worker: _Worker, delay_ns: int, fn) -> None:
        worker.mailbox.put((time.monotonic_ns() + delay_ns, self._order(), fn))

    def call_at(self, t_ns: int, ident: ThreadIdentity, fn) -> None:
        with self._session._lock:
            self._session._outstanding += 1
            self.start((self._clock.origin_ns + t_ns, self._order(),
                        partial(self._timed, ident, fn)), self._timekeeper)

    def _timed(self, ident: ThreadIdentity, fn) -> None:
        self._session._call_as(ident, fn)
        with self._session._quiesce:
            self._session._outstanding -= 1
            self._session._quiesce.notify_all()

    def signal(self, state: _TaskState) -> None:
        state.token.cancelled = True

    def _loop(self, worker: _Worker) -> None:
        self._session._tls.ident = worker.ident
        callbacks: list = []  # a heap of (due monotonic ns, order, fn)
        while not worker.retired:
            timeout = None
            if callbacks:
                timeout = max(0.0, (callbacks[0][0] - time.monotonic_ns()) / 1e9)
            try:
                item = worker.mailbox.get(timeout=timeout)
            except queue.Empty:
                heapq.heappop(callbacks)[2]()
                continue
            if item is None:  # the engine stopped
                break
            if type(item) is tuple:
                heapq.heappush(callbacks, item)
                continue
            while item is not None:
                item = self._run(item, worker)
        self._live.discard(worker)

    def _run(self, state: _TaskState, worker: _Worker) -> _TaskState | None:
        """Run a task; return the task the worker runs next."""
        session = self._session
        if not session._begin(state, worker):
            return session._skip(state, worker)
        body = state.task.body
        if body is None:
            body = _synthetic_body(state.task)
        try:
            body(state.token)
        except Exception:
            # The worker outlives a raising body; the hook reports it.
            threading.excepthook(threading.ExceptHookArgs(
                (*sys.exc_info(), threading.current_thread())))
        return session._finish(state, worker,
                               state.token.cancelled and state.task.cancellation_check)

    def wait_idle(self, timeout_s: float | None) -> bool:
        session = self._session
        with session._quiesce:
            return session._quiesce.wait_for(
                lambda: session._outstanding == 0, timeout_s)

    def stop(self, busy: set) -> None:
        """End every worker thread once it has no task left.

        Idle workers are joined against one shared deadline. A worker in
        ``busy``, still running a task when a drain timed out, gets its
        sentinel but is not waited for: it ends when its task does.
        """
        workers = list(self._live)
        for worker in workers:
            worker.mailbox.put(None)
        deadline = time.monotonic() + _STOP_JOIN_S
        for worker in workers:
            if worker not in busy:
                worker.thread.join(max(0.0, deadline - time.monotonic()))


def session_run(workload, **session_kwargs) -> TraceSession:
    """Run a workload callable against a fresh session, built with
    ``session_kwargs``, and drain it."""
    session = ProfilerSession(**session_kwargs)
    workload(session)
    return session.drain()
