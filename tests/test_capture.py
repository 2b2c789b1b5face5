"""Context capture: the memoized walk against the uncached walk it
replaces, the interning of what it returns, the frames drain names and
numbers, and how long the held frame and the line tables live.

``_OracleCapture`` is a capture unit that computes, at every capture, both
the unit's context and the plain walk below from the same frame, and
checks at ``resolve`` that each Schedule carries its walk's frames;
``OracleSession`` is a session that installs one. The plain walk, with
its ``startswith`` module test and its ``f_lineno`` reads, is the
reference and lives only here. The unit is also driven without a session.
"""

from collections import Counter

import _thread
import sys
import threading
import types
import weakref

import pytest

from asyncscope.clock import RealMonotonicClock, VirtualClock
from asyncscope import runtime
from asyncscope.runtime import (
    _INTERNAL_MODULES,
    DEFAULT_CAPTURE_DEPTH,
    DrainTimeout,
    ProfilerSession,
    Task,
    _Capture,
    _line_tables,
)
from asyncscope.trace_model import EventKind, TaskEvent

MS = 1_000_000


def uncached_walk(f, depth):
    """The user frames from ``f`` outwards, innermost first: their
    (module, symbol, line) triples, their raw stack of (module, id(code),
    f_lasti) tuples, and their code objects."""
    frames, raw, codes = [], [], []
    while f is not None and len(frames) < depth:
        module = f.f_globals.get("__name__", "?")
        if not module.startswith(_INTERNAL_MODULES):
            frames.append((module, f.f_code.co_name, f.f_lineno))
            raw.append((module, id(f.f_code), f.f_lasti))
            codes.append(f.f_code)
        f = f.f_back
    if not frames:
        frames.append(("<unknown>", "<unknown>", 0))
    return tuple(frames), tuple(raw), codes


def formatted(triples):
    return tuple(f"{module}:{symbol}:{line}" for module, symbol, line in triples)


class _OracleCapture(_Capture):
    def __init__(self):
        super().__init__()
        self.captures = 0
        self.mismatches = []
        self.returned = []  # (context, the uncached walk's triples)
        # Raw stack -> the context first returned for it, and its code
        # objects, kept so that no id in a key here can be reused.
        self.by_raw = {}

    def context(self):
        # Frame 2 is what the unit's own walk starts from when
        # _register_task calls it; called from here, it starts one frame
        # lower, at _register_task itself, which the walk skips.
        want, raw, codes = uncached_walk(sys._getframe(2), DEFAULT_CAPTURE_DEPTH)
        got = super().context()
        self.captures += 1
        self.returned.append((got, want))
        # A repeated raw stack returns the object it returned before.
        if self.by_raw.setdefault(raw, (got, codes))[0] is not got:
            self.mismatches.append((got, want))
        return got

    def resolve(self, log):
        super().resolve(log)
        # Each capture is logged at once, under the lock, so the log's
        # Schedules are in capture order. Each carries its walk's frames,
        # and equal frames are one object, in the log and in the trace.
        schedules = [ev for ev in log if ev.kind is EventKind.SCHEDULE]
        for ev, (got, want) in zip(schedules, self.returned, strict=True):
            if ev.context.frames != formatted(want):
                self.mismatches.append((ev.context, want))
        one = {}
        for ev in schedules:
            if one.setdefault(ev.context.frames, ev.context) is not ev.context:
                self.mismatches.append((ev.context, one[ev.context.frames]))


class OracleSession(ProfilerSession):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.oracle = self._capture = _OracleCapture()


def schedule_contexts(trace):
    return [ev.context for ev in trace.events if ev.kind is EventKind.SCHEDULE]


def _task(label):
    return Task(label, synthetic_duration_ns=1 * MS)


def _submit(pool, task):
    pool.submit(task)


def loop(s):
    pool = s.pool_executor(core_size=2, max_size=2)
    for _ in range(20):
        pool.submit(_task("loop"))


def two_lines(s):
    pool = s.pool_executor(core_size=2, max_size=2)
    for i in range(20):
        pool.submit(_task("a"))
        if i % 3:
            pool.submit(_task("b"))


def helper(s):
    pool = s.pool_executor(core_size=2, max_size=2)
    for i in range(20):
        if i < 10:
            _submit(pool, _task("via-helper"))
        else:
            # The frame held through the helper is now the first user
            # frame: one more full walk, then hits keyed by its raw tuple.
            pool.submit(_task("direct"))


def recursion(s):
    pool = s.pool_executor(core_size=2, max_size=2)

    def down(k):
        _submit(pool, _task(f"pre-{k}"))
        if k:
            down(k - 1)
        _submit(pool, _task(f"post-{k}"))

    for _ in range(3):
        down(12)


@types.coroutine
def _pause():
    yield


def generators(s):
    """A generator and a coroutine, each submitting through a helper (so
    its own frame is the walk's second user frame) and resumed from
    different callers."""
    pool = s.pool_executor(core_size=2, max_size=2)

    def gen():
        while True:
            _submit(pool, _task("gen"))
            yield

    async def coro():
        while True:
            _submit(pool, _task("coro"))
            await _pause()

    def via_a(it):
        it.send(None)

    def via_b(it):
        it.send(None)

    for it in (gen(), coro()):
        for _ in range(10):
            via_a(it)
            via_a(it)
            via_b(it)
            via_b(it)
            it.send(None)
        it.close()


def nested(s):
    """Task bodies that submit in a loop while drain runs them."""
    inner = s.pool_executor(core_size=1, max_size=1)
    outer = s.pool_executor(core_size=2, max_size=2)

    def body(token):
        for _ in range(4):
            _submit(inner, _task("inner"))

    for _ in range(6):
        outer.submit(Task("outer", body=body, synthetic_duration_ns=1 * MS))


def deep(s):
    """Submissions from below more frames than DEFAULT_CAPTURE_DEPTH."""
    def down(k):
        if k:
            down(k - 1)
        else:
            helper(s)

    down(40)


def _recurse_and_submit(pool, k):
    """Submits after its recursive call has returned. Its frame was then
    the second user frame of the capture just before, whose first two
    raw tuples equal its own and its caller's, so a memo keyed by those two
    alone would hand it that capture's context, one frame too long."""
    if k:
        _recurse_and_submit(pool, k - 1)
    pool.submit(_task(f"post-{k}"))


def direct_recursion(s):
    pool = s.pool_executor(core_size=2, max_size=2)
    for _ in range(3):
        _recurse_and_submit(pool, 12)


def alternating(s):
    """A direct submit and one through a helper, in turn: the loop's frame
    is held once both have been seen."""
    pool = s.pool_executor(core_size=2, max_size=2)
    for i in range(20):
        if i % 2:
            _submit(pool, _task("via-helper"))
        else:
            pool.submit(_task("direct"))


# Module names on either side of the internal-module test, and none at all.
FOREIGN = ["asyncscope.runtime_helpers", "asyncscope", None]


def _foreign_submit(module, first_line=1):
    """A submit helper whose frames report ``module`` as their module, or
    whose globals have no ``__name__`` when ``module`` is None, defined at
    ``first_line``. Its globals do not hold it, so it dies when dropped."""
    namespace = {} if module is None else {"__name__": module}
    defined = {}
    exec(compile("\n" * (first_line - 1) +
                 "def submit(pool, task):\n    pool.submit(task)\n",
                 "<foreign>", "exec"), namespace, defined)
    return defined["submit"]


def foreign(s):
    pool = s.pool_executor(core_size=2, max_size=2)
    for module in FOREIGN:
        submit = _foreign_submit(module)
        for _ in range(4):
            submit(pool, _task(f"foreign-{module}"))


def one_line_two_calls(s):
    """Two submissions from one line: their raw stacks differ in where the
    loop's frame is, and their frames are equal."""
    pool = s.pool_executor(core_size=2, max_size=2)
    for _ in range(10):
        _submit(pool, _task("first")), _submit(pool, _task("second"))


def one_code_two_modules(s):
    """One code object run under two module names: two contexts."""
    pool = s.pool_executor(core_size=2, max_size=2)
    submits = [types.FunctionType(_submit.__code__, {"__name__": module})
               for module in ("shared_code_a", "shared_code_b")]
    for _ in range(5):
        for submit in submits:
            submit(pool, _task("shared-code"))


def dropped_helpers(s):
    """Submit helpers defined at different lines, each dropped after use,
    so that a freed code's id can come back as another code's."""
    pool = s.pool_executor(core_size=2, max_size=2)
    for first_line in range(1, 9):
        submit = _foreign_submit("dropped", first_line)
        for _ in range(3):
            submit(pool, _task(f"dropped-{first_line}"))
        del submit


def no_user_frame(s):
    """Submissions whose stack holds no user frame: each from a bare
    thread whose one Python frame reports an internal module."""
    namespace = {"__name__": "asyncscope.runtime_helpers"}
    exec("def submit(pool, task, done):\n"
         "    pool.submit(task)\n"
         "    done.release()\n", namespace)
    pool = s.pool_executor(core_size=1, max_size=1)
    done = _thread.allocate_lock()
    for _ in range(3):
        done.acquire()
        _thread.start_new_thread(namespace["submit"],
                                 (pool, _task("nowhere"), done))
    assert done.acquire(timeout=10)


CASES = [loop, two_lines, helper, recursion, direct_recursion, generators,
         nested, deep, alternating, foreign, one_line_two_calls,
         one_code_two_modules, dropped_helpers, no_user_frame]


@pytest.mark.parametrize("depth", [DEFAULT_CAPTURE_DEPTH])
@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_capture_equals_uncached_walk(case, depth):
    session = OracleSession(clock=VirtualClock())
    case(session)
    session.drain()
    assert session.oracle.captures > 0
    assert session.oracle.mismatches == []
    assert all(len(context.frames) <= depth
               for context, _ in session.oracle.returned)


def test_one_code_under_two_modules_gives_two_contexts():
    session = OracleSession(clock=VirtualClock())
    one_code_two_modules(session)
    trace = session.drain()
    assert session.oracle.mismatches == []
    assert sorted({c.frames[0] for c in schedule_contexts(trace)}) == [
        f"shared_code_{m}:_submit:{_submit.__code__.co_firstlineno + 1}"
        for m in "ab"]


def test_no_user_frame_is_unknown():
    session = OracleSession(clock=VirtualClock())
    no_user_frame(session)
    trace = session.drain()
    assert session.oracle.mismatches == []
    assert {c.frames for c in schedule_contexts(trace)} == {
        ("<unknown>:<unknown>:0",)}


def test_reused_code_ids_get_their_own_lines():
    """Sessions one after another, each drained before the next defines
    its helpers, whose codes can take the ids of the last session's."""
    for _ in range(4):
        session = OracleSession(clock=VirtualClock())
        dropped_helpers(session)
        session.drain()
        assert session.oracle.mismatches == []


def test_line_table_goes_with_its_code():
    session = ProfilerSession(clock=VirtualClock())
    pool = session.pool_executor(core_size=1, max_size=1)
    submit = _foreign_submit("dropped", 5)
    for _ in range(3):
        submit(pool, _task("t"))
    trace = session.drain()
    assert schedule_contexts(trace)[0].frames[0] == "dropped:submit:6"
    code = weakref.ref(submit.__code__)
    table = _line_tables[id(submit.__code__)][0]
    assert table() is code()
    del submit
    assert code() is None
    assert all(ref is not table for ref, _ in _line_tables.values())


def test_module_test_agrees_with_startswith():
    session = OracleSession(clock=VirtualClock())
    foreign(session)
    session.drain()
    assert session.oracle.mismatches == []
    modules = {frame.rsplit(":", 2)[0]
               for context, _ in session.oracle.returned
               for frame in context.frames}
    # "asyncscope.runtime_helpers" starts with "asyncscope.runtime".
    assert "asyncscope.runtime_helpers" not in modules
    assert {"asyncscope", "?"} <= modules


@pytest.mark.parametrize("case", [loop, alternating, one_line_two_calls])
def test_one_line_returns_one_tuple(case):
    """On the memo's path and on full walks alike, and for raw stacks that
    drain finds equal."""
    session = OracleSession(clock=VirtualClock())
    case(session)
    trace = session.drain()
    by_line = {}
    for context in schedule_contexts(trace):
        by_line.setdefault(context.frames[0], []).append(context)
    for contexts in by_line.values():
        assert len(contexts) > 1
        assert all(c is contexts[0] for c in contexts)


@pytest.mark.parametrize("case", [loop, two_lines, alternating, foreign,
                                  one_line_two_calls])
def test_each_site_shares_one_execution_context(case):
    session = ProfilerSession(clock=VirtualClock())
    case(session)
    trace = session.drain()
    by_site = {}
    for ev in trace.events:
        if ev.kind is EventKind.SCHEDULE:
            by_site.setdefault(ev.detail, set()).add(id(ev.context))
    assert by_site and all(len(ids) == 1 for ids in by_site.values())


@pytest.mark.parametrize("case", [loop, two_lines, helper, nested, deep,
                                  alternating])
def test_loops_reuse_the_anchor(case):
    session = OracleSession(clock=VirtualClock())
    case(session)
    session.drain()
    assert session.capture_walks < session.oracle.captures / 2


def test_capture_equals_uncached_walk_on_concurrent_submitters():
    n_threads, per_thread = 4, 500
    session = OracleSession(clock=RealMonotonicClock())
    pools = [session.pool_executor(core_size=1, max_size=1)
             for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads, timeout=10)
    noop = Task("t", body=lambda token: None)

    def submit(pool):
        pool.submit(noop)

    def submitter(i):
        barrier.wait()
        for j in range(per_thread):
            if j % 2:
                submit(pools[i])
            else:
                pools[i].submit(noop)

    threads = [threading.Thread(target=submitter, args=(i,))
               for i in range(n_threads)]
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
    assert session.oracle.captures == n_threads * per_thread
    assert session.oracle.mismatches == []
    check_drained(session, trace)


def check_drained(session, trace):
    """The trace's events are TaskEvents, and its Schedules carry the
    log's contexts, one per capture, with frames of strings. The oracle
    checked the log's at drain."""
    assert all(type(ev) is TaskEvent for ev in trace.events)
    contexts = schedule_contexts(trace)
    assert Counter(map(id, contexts)) == Counter(
        id(ev.context) for ev in session._events
        if ev.kind is EventKind.SCHEDULE)
    assert len(contexts) == session.oracle.captures
    assert all(type(frame) is str for context in contexts
               for frame in context.frames)


@pytest.mark.parametrize("clock", [VirtualClock, RealMonotonicClock],
                         ids=["virtual", "real"])
def test_drained_schedules_carry_formatted_contexts(clock):
    session = OracleSession(clock=clock())
    two_lines(session)
    alternating(session)
    trace = session.drain(timeout_s=10)
    assert session.oracle.mismatches == []
    check_drained(session, trace)


@pytest.mark.parametrize("clock", [VirtualClock, RealMonotonicClock],
                         ids=["virtual", "real"])
def test_partial_session_carries_formatted_contexts(clock):
    session = OracleSession(clock=clock())
    release = threading.Event()
    loop(session)
    if clock is VirtualClock:
        stuck = Task("stuck", synthetic_duration_ns=None)
    else:
        stuck = Task("stuck", body=lambda token: release.wait(10))
    session.spawn_thread(stuck)
    try:
        with pytest.raises(DrainTimeout) as exc_info:
            session.drain(timeout_s=0.5)
    finally:
        release.set()
    assert session.oracle.mismatches == []
    check_drained(session, exc_info.value.session)


def test_capture_walks_counts_full_walks_only():
    session = ProfilerSession(clock=VirtualClock())
    loop(session)
    # The first walk holds its second user frame, the loop's caller, and
    # the other 19 submissions find it.
    assert session.capture_walks == 1
    session.drain()
    off = ProfilerSession(clock=VirtualClock(), emit_events=False)
    loop(off)
    assert off.capture_walks == 0


# -- the held frame's lifetime --------------------------------------------------


class _Local:
    pass


def _submit_from_loop(s, task, then_drain=False):
    """Submit through a helper from a loop, so that this frame is held, and
    return a weak reference to one of its locals."""
    local = _Local()
    ref = weakref.ref(local)
    pool = s.pool_executor(core_size=1, max_size=1)
    for _ in range(5):
        _submit(pool, task)
    assert s.capture_walks < 5
    if then_drain:
        s.drain(timeout_s=10)
    return ref


@pytest.mark.parametrize("clock", [VirtualClock, RealMonotonicClock],
                         ids=["virtual", "real"])
def test_anchor_released_at_drain(clock):
    session = ProfilerSession(clock=clock())
    ref = _submit_from_loop(session, _task("t"))
    session.drain(timeout_s=10)
    assert ref() is None


def test_anchor_released_by_drain_in_the_anchored_frame():
    session = ProfilerSession(clock=VirtualClock())
    ref = _submit_from_loop(session, _task("t"), then_drain=True)
    assert ref() is None


def test_anchor_released_at_drain_timeout():
    session = ProfilerSession(clock=VirtualClock())
    ref = _submit_from_loop(session, Task("forever", synthetic_duration_ns=None))
    with pytest.raises(DrainTimeout):
        session.drain(timeout_s=1.0)
    assert ref() is None


def _site(pool, refs):
    local = _Local()
    refs.append(weakref.ref(local))
    _submit(pool, _task("site"))


def test_returned_frames_are_not_held():
    """Each call of a site is a new frame that the capture holds; the next
    full walk that does not see it lets it go, with its locals."""
    session = ProfilerSession(clock=VirtualClock())
    pool = session.pool_executor(core_size=1, max_size=1)
    refs = []
    for _ in range(6):
        _site(pool, refs)
    pool.submit(_task("elsewhere"))
    assert [ref() for ref in refs] == [None] * 6
    session.drain()


def test_a_second_drain_gives_the_same_contexts():
    """The first drain fills in and empties the context table; a second
    one, after a timeout, hands out the same events, built once, with
    each Schedule's context, merged ones included."""
    session = ProfilerSession(clock=VirtualClock())
    loop(session)
    one_line_two_calls(session)
    session.spawn_thread(Task("forever", synthetic_duration_ns=None))
    traces = []
    for _ in range(2):
        with pytest.raises(DrainTimeout) as exc_info:
            session.drain(timeout_s=1.0)
        traces.append(exc_info.value.session)
    first, second = (trace.events for trace in traces)
    assert all(a is b for a, b in zip(first, second, strict=True))
    contexts = schedule_contexts(traces[0])
    assert len(contexts) == 41
    assert all(context.frames for context in contexts)
    # The first drain gave one line's two raw stacks one context.
    assert len({id(c) for c in contexts[20:40]}) == 1


# -- the unit without a session --------------------------------------------------


def _capture(unit):
    """Stands in for _register_task: the unit's walk starts at this
    function's caller, and so does the uncached walk returned with it."""
    return unit.context(), uncached_walk(sys._getframe(1), DEFAULT_CAPTURE_DEPTH)[0]


def _capture_site(unit, got):
    for _ in range(5):
        got.append(_capture(unit))
    got.append(_capture(unit))


def _capture_loop(unit, got):
    """Calls one site in a loop, and returns a weak reference to one of
    its own locals: its frame is the one the unit holds."""
    local = _Local()
    for _ in range(3):
        _capture_site(unit, got)
    return weakref.ref(local)


def test_capture_unit_without_a_session(monkeypatch):
    unit = _Capture()
    got = []
    ref = _capture_loop(unit, got)
    # The first capture holds the loop's frame, the second user frame, and
    # the site's second line walks once more; every other capture, in each
    # call of the site, finds a context held below that frame.
    assert len(got) == 18 and unit.walks == 2
    assert ref() is not None
    unit.resolve([])
    assert ref() is None
    for context, want in got:
        assert context.frames == formatted(want)
    assert len({id(context) for context, _ in got}) == 2
    # The first resolve emptied the table: the second names no frame.
    monkeypatch.setattr(runtime, "_where", None)
    unit.resolve([])
    assert all(context.frames == formatted(want) for context, want in got)
