"""Context capture: the memoized walk against the uncached walk it
replaces, the interning of what it returns, the frames drain names and
numbers, and how long the held frame and the line tables live.

``_OracleCapture`` is a capture unit that computes, at every capture, both
the unit's context and the plain walk below from the same frame, checks
after each full walk that the unit holds the frame the rule names, and
checks at ``resolve`` that each Schedule carries its walk's frames;
``OracleSession`` is a session that installs one. The plain walk, with
its ``startswith`` module test, its ``f_lineno`` reads and its stop at the
dispatch loop's frame found by its code, and the rule read from ``dis``,
are the reference and live only here. The unit is also driven without a
session.
"""

from collections import Counter
from functools import partial

import _thread
import dis
import gc
import inspect
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
    _names,
    _repeat_spans,
    _repeats,
    _VirtualEngine,
)
from asyncscope.trace_model import EventKind, TaskEvent

MS = 1_000_000


# The virtual engine's dispatch loop: every timed action and task body of a
# virtual session runs above a frame of this code.
_LOOP = _VirtualEngine.wait_idle.__code__


def is_internal(f):
    module = f.f_globals.get("__name__", "?")
    return module == "threading" or module.startswith(_INTERNAL_MODULES)


def dispatch_loop(f):
    """The innermost frame of the dispatch loop on ``f``'s stack, or None."""
    while f is not None and f.f_code is not _LOOP:
        f = f.f_back
    return f


def uncached_walk(f, depth):
    """The user frames from ``f`` outwards, innermost first, down to the
    dispatch loop that runs ``f`` if there is one: their (module, symbol,
    line) triples, their raw stack of (module, id(code), f_lasti) tuples,
    and their code objects."""
    loop = dispatch_loop(f)
    frames, raw, codes = [], [], []
    while f is not loop and len(frames) < depth:
        if not is_internal(f):
            module = f.f_globals.get("__name__", "?")
            frames.append((module, f.f_code.co_name, f.f_lineno))
            raw.append((module, id(f.f_code), f.f_lasti))
            codes.append(f.f_code)
        f = f.f_back
    if not frames:
        frames.append(("<unknown>", "<unknown>", 0))
    return tuple(frames), tuple(raw), codes


def formatted(triples):
    return tuple(f"{module}:{symbol}:{line}" for module, symbol, line in triples)


_RESUMABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
_JUMPS = frozenset(dis.hasjrel + dis.hasjabs)


def may_hold(frame):
    """Whether a capture may hold ``frame``: its code is not resumable, and
    its instruction lies between a backward jump's target and the jump, or
    between an exception handler and the end of a range it guards that
    ends after it."""
    code = frame.f_code
    if code.co_flags & _RESUMABLE:
        return False
    lasti = frame.f_lasti
    bytecode = dis.Bytecode(code)
    return any(ins.argval <= lasti <= ins.offset for ins in bytecode
               if ins.opcode in _JUMPS) or any(
        entry.target <= lasti < entry.end
        for entry in getattr(bytecode, "exception_entries", ()))


def user_frames(f, n):
    """The first ``n`` user frames from ``f`` outwards, down to the
    dispatch loop that runs ``f`` if there is one."""
    loop = dispatch_loop(f)
    frames = []
    while f is not loop and len(frames) < n:
        if not is_internal(f):
            frames.append(f)
        f = f.f_back
    return frames


class _Lookups(dict):
    """A held frame's memo that counts its lookups."""

    def __init__(self, known):
        super().__init__(known)
        self.gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


class _OracleCapture(_Capture):
    def __init__(self):
        super().__init__()
        self.captures = 0
        self.held = 0  # frames held, each hold counted once
        # Captures that returned with no walk, no lookup in the held frame's
        # memo and no change to _held: from the fast entry.
        self.fast = 0
        self.mismatches = []
        self.returned = []  # (context, the uncached walk's triples)
        self.in_loop = []  # per capture, whether a dispatch loop ran it
        # Raw stack -> the context first returned for it, and its code
        # objects, kept so that no id in a key here can be reused.
        self.by_raw = {}
        # The memo of the frame held last, in place of the unit's: a new
        # one means a new hold.
        self._known = None

    def context(self, skip):
        # The reference walk starts from _register_task's caller, frame 2
        # here, and walks the submission path's frames that the unit skips;
        # the unit is one call further out from here than from
        # _register_task, so it is passed ``skip + 1``.
        want, raw, codes = uncached_walk(sys._getframe(2), DEFAULT_CAPTURE_DEPTH)
        head = user_frames(sys._getframe(2), 2)
        held, walks = self._held, self.walks
        before, gets = held[0], getattr(held[1], "gets", 0)
        got = super().context(skip + 1)
        self.captures += 1
        if (self.walks == walks and self._held is held
                and getattr(held[1], "gets", 0) == gets):
            self.fast += 1
        self.returned.append((got, want))
        self.in_loop.append(dispatch_loop(sys._getframe(2)) is not None)
        # A repeated raw stack returns the object it returned before.
        if self.by_raw.setdefault(raw, (got, codes))[0] is not got:
            self.mismatches.append((got, want))
        # A full walk that met the held frame keeps it; any other holds the
        # outer of its first two user frames if it may, else the inner one
        # if it may, else nothing.
        if self.walks > walks:
            if any(frame is before for frame in head):
                expect = before
            else:
                expect = next((f for f in reversed(head) if may_hold(f)), None)
            if self._held[0] is not expect:
                self.mismatches.append(("held", got, want))
        if self._held[0] is not None and self._held[1] is not self._known:
            self._known = _Lookups(self._held[1])
            self._held = (self._held[0], self._known, self._held[2])
            self.held += 1
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
FOREIGN = ["asyncscope.runtime_helpers", "asyncscope", "threading",
           "threading_utils", None]


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
    # Released even when the submission raises, so that no acquire waits
    # for a thread that has gone.
    exec("def submit(pool, task, done):\n"
         "    try:\n"
         "        pool.submit(task)\n"
         "    finally:\n"
         "        done.release()\n", namespace)
    pool = s.pool_executor(core_size=1, max_size=1)
    done = _thread.allocate_lock()
    for _ in range(3):
        assert done.acquire(timeout=10)
        _thread.start_new_thread(namespace["submit"],
                                 (pool, _task("nowhere"), done))
    assert done.acquire(timeout=10)


def while_loop(s):
    pool = s.pool_executor(core_size=2, max_size=2)
    n = 20
    while n:
        pool.submit(_task("while"))
        n -= 1


def _refused_submit(pool, attempt):
    """Submits, then refuses all but every third attempt."""
    pool.submit(_task(f"attempt-{attempt}"))
    if attempt % 3:
        raise LookupError(attempt)


def retry(s):
    """Each submission retried through try/except until it is accepted."""
    pool = s.pool_executor(core_size=2, max_size=2)
    attempt = 0
    for _ in range(6):
        while True:
            try:
                attempt += 1
                _refused_submit(pool, attempt)
                break
            except LookupError:
                pass


def comprehension(s):
    pool = s.pool_executor(core_size=2, max_size=2)
    [pool.submit(_task(f"listed-{i}")) for i in range(20)]


def _submit_many(pool, n):
    for i in range(n):
        pool.submit(_task(f"many-{i}"))


def looping_helper(s):
    """The helper loops and its caller does not: the helper's frame is
    held, and its captures hit at their first user frame."""
    pool = s.pool_executor(core_size=2, max_size=2)
    _submit_many(pool, 20)


def nested_loops(s):
    """Loops in the caller around a helper that does not loop: the
    caller's frame is held."""
    pool = s.pool_executor(core_size=2, max_size=2)
    for i in range(4):
        for j in range(5):
            _submit(pool, _task(f"cell-{i}-{j}"))


# -- captures inside the dispatch loop ---------------------------------------------

# User frames above the virtual engine's dispatch loop: a capture ends at the
# loop's frame (below 32), the 32-frame cut falls exactly on the frame just
# above it (32), or above that (33, 40).
DISPATCH_DEPTHS = [0, 1, *range(24, 34), 40]


def _internal_submit():
    """A submit helper whose frame reports an internal module: a callback
    or task body made from it puts no user frame above the loop."""
    namespace = {"__name__": "asyncscope.runtime_helpers"}
    exec("def submit(pool, *token):\n    pool.submit(TASK)\n", namespace)
    namespace["TASK"] = _task("flat")
    return namespace["submit"]


def _climb(k, pool, *token):
    """Submits from ``k`` user frames: this call and its k - 1 calls."""
    if k > 1:
        return _climb(k - 1, pool)
    pool.submit(_task(f"climb-{k}"))


def _at_depth(k, pool):
    """A callback, or a task body, that submits from ``k`` user frames."""
    return partial(_internal_submit(), pool) if k == 0 else partial(_climb, k, pool)


def dispatch_depths(s):
    """Timed callbacks and task bodies that submit from every depth in
    DISPATCH_DEPTHS above the dispatch loop, each depth twice."""
    pool = s.pool_executor(core_size=2, max_size=2)
    for i, k in enumerate(DISPATCH_DEPTHS * 2):
        s.call_at(i * MS, _at_depth(k, pool))
        pool.submit(Task("body", body=_at_depth(k, pool), synthetic_duration_ns=MS))


def _module_chain():
    """A climb whose frames report, in turn, a user module, an internal
    one, a globals dict with no ``__name__`` and another user module: the
    module changes at every frame."""
    spaces = [{"__name__": "chain_a"}, {"__name__": "asyncscope.runtime_helpers"},
              {}, {"__name__": "chain_b"}]
    for space in spaces:
        exec("def climb(k, pool, *token):\n"
             "    if k > 1:\n"
             "        return NEXT(k - 1, pool)\n"
             "    pool.submit(TASK)\n", space)
        space["TASK"] = _task("chain")
    for space, after in zip(spaces, spaces[1:] + spaces[:1]):
        space["NEXT"] = after["climb"]
    return spaces[0]["climb"]


def module_chains(s):
    """Chains of frames from four globals in turn, submitted from outside
    the loop, from timed callbacks and from task bodies."""
    pool = s.pool_executor(core_size=2, max_size=2)
    climb = _module_chain()
    for i, k in enumerate((2, 5, 9, 30, 45) * 2):
        climb(k, pool)
        s.call_at(i * MS, partial(climb, k, pool))
        pool.submit(Task("body", body=partial(climb, k, pool),
                         synthetic_duration_ns=MS))


def _wait_in_between(s):
    s.wait_idle()


# Captures in each loop of the cases below.
PER_LOOP = 4


def two_loops(s):
    """Captures in one dispatch loop run from here, and in a second one
    run later from another caller, whose frames below it differ: both
    loops give the same context."""
    pool = s.pool_executor(core_size=2, max_size=2)
    for i in range(PER_LOOP):
        s.call_at(i * MS, partial(_climb, 3, pool))
    _wait_in_between(s)
    for i in range(PER_LOOP):
        s.call_at(s.clock.now_ns() + i * MS, partial(_climb, 3, pool))


def _inner_loop(s, pool):
    """A timed callback that submits, runs a dispatch loop of its own over
    more callbacks, and submits again once that inner loop has returned."""
    _climb(2, pool)
    for i in range(PER_LOOP):
        s.call_at(s.clock.now_ns() + (i + 1) * MS, partial(_climb, 4, pool))
    s.wait_idle()
    _climb(2, pool)


def nested_dispatch(s):
    """An inner loop run from a timed callback of an outer one: captures
    in it end at the inner loop's frame, and those of the outer one's
    actions at the outer one's again once the inner returns."""
    pool = s.pool_executor(core_size=2, max_size=2)
    for i in range(PER_LOOP):
        s.call_at(i * MS, partial(_climb, 3, pool))
    s.call_at(PER_LOOP * MS, partial(_inner_loop, s, pool))


CASES = [loop, two_lines, helper, recursion, direct_recursion, generators,
         nested, deep, alternating, foreign, one_line_two_calls,
         one_code_two_modules, dropped_helpers, no_user_frame, while_loop,
         retry, comprehension, looping_helper, nested_loops, dispatch_depths,
         module_chains, two_loops, nested_dispatch]


# (full walks, captures) per case when every miss held the outer of its
# first two user frames wherever it was: holding only a frame that a later
# capture can meet must never walk more.
WALKS = {
    "loop": (1, 20), "two_lines": (2, 33), "helper": (2, 20),
    "recursion": (78, 78), "direct_recursion": (39, 39),
    "generators": (100, 100), "nested": (7, 30), "deep": (2, 20),
    "alternating": (3, 20), "foreign": (5, 20), "one_line_two_calls": (2, 20),
    "one_code_two_modules": (2, 10), "dropped_helpers": (8, 24),
    "no_user_frame": (3, 3), "while_loop": (1, 20), "retry": (1, 18),
    "comprehension": (1, 20), "looping_helper": (1, 20),
    "nested_loops": (1, 20),
    # Every capture that a dispatch loop runs is made from frames of their
    # own, and ends at the loop's frame: one walk each.
    "dispatch_depths": (53, 78), "module_chains": (40, 40),
    "two_loops": (2 * PER_LOOP, 2 * PER_LOOP),
    "nested_dispatch": (2 * PER_LOOP + 2, 2 * PER_LOOP + 2),
}


# Captures per case that return the fast entry's context. A loop that
# submits through one call level keeps an entry for the first site that
# hits below its held frame, and each later capture from that site returns
# from it: through the helper (helper, deep, alternating, nested_loops),
# one line's first call of two (one_line_two_calls) and one module's of
# one code's two (one_code_two_modules). A capture whose first user frame
# is the held frame (loop, two_lines, comprehension, looping_helper)
# hits the memo instead.
FAST = {
    "loop": 0, "two_lines": 0, "helper": 8, "recursion": 0,
    "direct_recursion": 0, "generators": 0, "nested": 12, "deep": 8,
    "alternating": 8, "foreign": 2, "one_line_two_calls": 8,
    "one_code_two_modules": 3, "dropped_helpers": 1, "no_user_frame": 0,
    "while_loop": 0, "retry": 16, "comprehension": 0, "looping_helper": 0,
    "nested_loops": 18, "dispatch_depths": 0, "module_chains": 0,
    "two_loops": 0, "nested_dispatch": 0,
}


# Each id names the depth its case runs at.
@pytest.mark.parametrize("case", CASES,
                         ids=[f"{c.__name__}-{DEFAULT_CAPTURE_DEPTH}" for c in CASES])
def test_capture_equals_uncached_walk(case):
    session = OracleSession(clock=VirtualClock())
    case(session)
    session.drain()
    walks, captures = WALKS[case.__name__]
    assert session.oracle.captures == captures
    assert session.capture_walks <= walks
    assert session.oracle.mismatches == []
    assert all(len(context.frames) <= DEFAULT_CAPTURE_DEPTH
               for context, _ in session.oracle.returned)
    assert session.oracle.fast == FAST[case.__name__]


def _on_a_new_thread(fn, *args):
    """``fn(*args)`` on a new thread, whose stack below ``fn`` is a few
    frames, not the test runner's many. Returns what ``fn`` returns, or
    raises what it raised."""
    out = []

    def run():
        try:
            out.append((True, fn(*args)))
        except BaseException as exc:  # handed back to the caller's thread
            out.append((False, exc))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    ok, value = out[0]
    if not ok:
        raise value
    return value


def _run_and_drain(case):
    session = OracleSession(clock=VirtualClock())
    case(session)
    session.drain()
    return session


def _looped_frames(oracle):
    """The frames of each capture that a dispatch loop ran, in order."""
    return [context.frames for (context, _), looped
            in zip(oracle.returned, oracle.in_loop) if looped]


DISPATCH_CASES = [dispatch_depths, module_chains, two_loops, nested_dispatch]


@pytest.mark.parametrize("case", DISPATCH_CASES, ids=[c.__name__ for c in DISPATCH_CASES])
def test_dispatch_captures_agree_on_a_short_stack(case):
    """Drained on a thread of its own, whose stack below each dispatch loop
    is short, captures above a loop end at its frame: they agree with the
    uncached walk, and name the same frames as on the test runner's deep
    stack. The unit names no loop once the last one returns."""
    here = _run_and_drain(case)
    there = _on_a_new_thread(_run_and_drain, case)
    assert here.oracle.mismatches == there.oracle.mismatches == []
    assert any(there.oracle.in_loop) and there.oracle.in_loop == here.oracle.in_loop
    assert _looped_frames(there.oracle) == _looped_frames(here.oracle)
    assert there.capture_walks <= WALKS[case.__name__][0]
    assert there._capture.stop is None


def test_dispatch_cut_falls_above_the_loop():
    """A capture that a loop runs holds its user frames above the loop's
    frame and none below it, cut at 32: the depths above the loop put the
    cut above the loop's frame, on the frame just above it, or nowhere."""
    oracle = _run_and_drain(dispatch_depths).oracle
    assert oracle.mismatches == []
    # Each depth runs as a timed callback and as a task body, twice; a
    # submission with no user frame above the loop is <unknown>.
    assert Counter(map(len, _looped_frames(oracle))) == Counter(
        max(1, min(k, DEFAULT_CAPTURE_DEPTH)) for k in DISPATCH_DEPTHS * 4)


def _submit_then_time_out(session):
    dispatch_depths(session)
    session.spawn_thread(Task("forever", synthetic_duration_ns=None))
    with pytest.raises(DrainTimeout) as first:
        session.drain(timeout_s=1.0)
    return session, first.value.session


def test_second_drain_after_a_timeout_in_dispatch():
    """A drain that times out lets go of its loop's frame; a second drain
    gives the same events, with the contexts the oracle checked."""
    session, first = _on_a_new_thread(_submit_then_time_out, OracleSession(
        clock=VirtualClock()))
    assert session.oracle.mismatches == [] and any(session.oracle.in_loop)
    assert session._capture.stop is None
    with pytest.raises(DrainTimeout) as second:
        session.drain(timeout_s=1.0)
    assert all(a is b for a, b in zip(first.events, second.value.session.events,
                                      strict=True))
    assert session.oracle.mismatches == []


class _Interrupt(BaseException):
    """Leaves the dispatch loop from a timed action, as KeyboardInterrupt
    would: ``_call_as`` reports an ``Exception`` but lets this through."""


def _interrupt():
    raise _Interrupt


def _interrupted_then_resumed(session):
    pool = session.pool_executor(core_size=1, max_size=1)
    for i in range(2 * PER_LOOP):
        session.call_at(i * MS, partial(_climb, 3, pool))
    session.call_at((PER_LOOP - 1) * MS + 1, _interrupt)
    with pytest.raises(_Interrupt):
        session.wait_idle()
    left = session._capture.stop
    _wait_in_between(session)
    session.drain()
    return left


def test_a_loop_left_by_an_exception_lets_go_of_its_frame():
    """A loop that an exception leaves gives back None; the loop that runs
    the rest of the actions, from another caller, ends their captures at
    its own frame, with the same context as the first loop's."""
    session = OracleSession(clock=VirtualClock())
    left = _on_a_new_thread(_interrupted_then_resumed, session)
    assert left is None
    assert session.oracle.mismatches == []
    assert session.oracle.in_loop == [True] * (2 * PER_LOOP)
    assert len({id(context) for context, _ in session.oracle.returned}) == 1


def _drain_from_a_callback(session):
    pool = session.pool_executor(core_size=1, max_size=1)
    kept = []

    def drain_here():
        kept.append(session._capture.stop)
        session.drain()
        kept.append(session._capture.stop)

    for i in range(PER_LOOP):
        session.call_at(i * MS, partial(_climb, 3, pool))
    session.call_at(PER_LOOP * MS, drain_here)
    session.wait_idle()
    kept.append(session._capture.stop)
    return kept


def test_drain_inside_the_loop_keeps_its_stop():
    """A drain run from an action of the loop closes the session, not the
    loop: the unit names the loop's frame until the loop returns."""
    before, after, returned = _on_a_new_thread(
        _drain_from_a_callback, OracleSession(clock=VirtualClock()))
    assert before.f_code is _LOOP and after is before and returned is None


def _stops_around_each_capture(session):
    pool = session.pool_executor(core_size=1, max_size=1)
    seen = []
    for i in range(3):
        session.call_at(i * MS, lambda: seen.append(session._capture.stop))
        session.call_at(i * MS + 1, partial(_climb, 3, pool))
    session.call_at(3 * MS, lambda: seen.append(session._capture.stop))
    session.wait_idle()
    session.drain()
    return seen


def test_a_loop_names_its_frame_for_every_action():
    """From its first action on, a loop's every action sees the loop's
    own frame as the unit's stop, and every capture ends there."""
    session = OracleSession(clock=VirtualClock())
    first, *rest = _on_a_new_thread(_stops_around_each_capture, session)
    assert first.f_code is _LOOP and all(stop is first for stop in rest)
    assert session.oracle.in_loop == [True] * 3
    assert session.oracle.mismatches == []


def test_an_inner_loop_gives_back_the_outer_stop():
    session = OracleSession(clock=VirtualClock())
    pool = session.pool_executor(core_size=1, max_size=1)
    seen = []

    def inner_loop():
        seen.append(session._capture.stop)
        session.call_at(session.clock.now_ns() + MS,
                        lambda: seen.append(session._capture.stop))
        for i in range(2):
            session.call_at(session.clock.now_ns() + (i + 1) * MS,
                            partial(_climb, 2, pool))
        session.wait_idle()
        seen.append(session._capture.stop)
        _climb(2, pool)

    session.call_at(0, partial(_climb, 3, pool))
    session.call_at(MS, inner_loop)
    session.wait_idle()
    session.drain()
    outer, inner, back = seen
    assert outer.f_code is inner.f_code is _LOOP
    assert inner is not outer and back is outer
    assert session.oracle.in_loop == [True] * 4
    assert session.oracle.mismatches == []
    # The inner loop's captures end at its frame, so they name no frame
    # of the action that ran it.
    assert [len(frames) for frames in _looped_frames(session.oracle)] == [3, 2, 2, 3]


def _from_another_thread(s):
    """Captures in a loop, one of them from a thread that a timed callback
    starts and joins: that thread's stack does not pass the loop's frame."""
    pool = s.pool_executor(core_size=1, max_size=1)

    def on_a_thread():
        thread = threading.Thread(target=_climb, args=(3, pool))
        thread.start()
        thread.join()

    for i in range(3):
        s.call_at(i * MS, partial(_climb, 2, pool))
    s.call_at(3 * MS, on_a_thread)
    s.call_at(4 * MS, partial(_climb, 2, pool))


def test_a_walk_that_misses_the_loops_frame_goes_to_its_end():
    """The other thread's walk goes to its stack's end, past ``threading``'s
    frames, which are internal: its context is its three user frames."""
    session = OracleSession(clock=VirtualClock())
    _from_another_thread(session)
    session.drain()
    assert session.oracle.captures == session.capture_walks == 5
    assert session.oracle.in_loop == [True, True, True, False, True]
    assert session.oracle.mismatches == []
    frames = session.oracle.returned[3][0].frames
    assert [frame.split(":")[1] for frame in frames] == ["_climb"] * 3


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


@pytest.mark.parametrize("clock", [VirtualClock, RealMonotonicClock],
                         ids=["virtual", "real"])
def test_shortest_stacks_are_unknown(clock):
    """The shortest stacks a submission can have, each of which submits
    and is unknown. On the real clock, a bare thread that starts at submit
    itself, so that the frame where the capture starts does not exist; on
    the virtual clock, a timed action that is submit itself, so that only
    internal frames sit above the dispatch loop."""
    session = OracleSession(clock=clock())
    pool = session.pool_executor(core_size=1, max_size=1)
    ran = threading.Event()
    task = Task("shallow", body=lambda token: ran.set(),
                synthetic_duration_ns=MS)
    if clock is VirtualClock:
        session.call_at(MS, partial(pool.submit, task))
    else:
        _thread.start_new_thread(pool.submit, (task,))
        assert ran.wait(10)
    trace = session.drain(timeout_s=10)
    assert session.oracle.mismatches == []
    assert [c.frames for c in schedule_contexts(trace)] == [
        ("<unknown>:<unknown>:0",)]


def _entry_site(submit, task):
    submit(task)


@pytest.mark.parametrize("clock", [VirtualClock, RealMonotonicClock],
                         ids=["virtual", "real"])
def test_each_entry_gives_its_submitters_frame(clock):
    """A one-line site submits through each public entry, each time from a
    timed action, so that the site's frame is the only user frame above the
    engine's: the capture skips each entry's own frames, and no more."""
    session = OracleSession(clock=clock())
    pool = session.pool_executor(core_size=1, max_size=1)
    session.register_service("svc")
    entries = [session.spawn_thread, pool.submit,
               session.serial_executor().submit,
               session.facade.execute_default,
               partial(session.facade.execute_on, pool),
               partial(session.dispatch_service, "svc")]
    for entry in entries:
        session.call_at(0, partial(_entry_site, entry, _task("entry")))
    trace = session.drain(timeout_s=10)
    assert session.oracle.mismatches == []
    site = f"{__name__}:_entry_site:{_entry_site.__code__.co_firstlineno + 1}"
    assert [c.frames for c in schedule_contexts(trace)] == [
        (site,)] * len(entries)


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
    assert all(entry[0] is not table for entry in _line_tables.values())


def _no_scan(frame, code):
    raise AssertionError(f"{frame} was named again")


def test_names_go_with_their_code_and_serve_later_sessions(monkeypatch):
    """A raw frame is named once a process: its name goes when its code
    dies, and a later session whose stacks are live names no frame."""
    session = ProfilerSession(clock=VirtualClock())
    pool = session.pool_executor(core_size=1, max_size=1)
    submit = _foreign_submit("dropped", 5)
    submit(pool, _task("t"))
    session.drain()
    key = id(submit.__code__)
    assert [name for frame, name in _names.items()
            if frame[1] == key] == ["dropped:submit:6"]
    del submit, session, pool
    gc.collect()
    assert not any(frame[1] == key for frame in _names)
    assert not any(frame[1] == key for frame in _repeats)
    # Two sessions submit from one site, the second unable to name a frame.
    contexts = []
    for scan in (True, False):
        if not scan:
            monkeypatch.setattr(runtime, "_name", _no_scan)
        session = ProfilerSession(clock=VirtualClock())
        loop(session)
        contexts.append(schedule_contexts(session.drain()))
    assert [c.frames for c in contexts[1]] == [c.frames for c in contexts[0]]


def _shaped_submit(loops):
    """Of two helpers whose submit call is at the same offset, which can
    run again in the looping one and not in the other, and whose bytecode
    is made as long, so that one's code can take the other's freed id."""
    namespace = {"__name__": "shaped"}
    defined = {}
    exec(compile(_SHAPES[loops], "<shaped>", "exec"), namespace, defined)
    return defined["submit"]


_SHAPES = {
    True: "def submit(pool, task):\n    n = 2\n    while n:\n"
          "        n -= 1\n        pool.submit(task)\n",
    False: "def submit(pool, task):\n    n = 2\n    if n:\n"
           "        n -= 1\n        pool.submit(task)\n",
}
while (len(_shaped_submit(False).__code__.co_code)
       < len(_shaped_submit(True).__code__.co_code)):
    _SHAPES[False] += "    n = 0\n"


def test_repeat_keys_go_with_their_code():
    """A capture that tests a frame of a code keys the answer by its raw
    tuple; the code's entry and those keys go when the code dies."""
    session = ProfilerSession(clock=VirtualClock())
    pool = session.pool_executor(core_size=1, max_size=1)
    submit = _shaped_submit(loops=False)
    submit(pool, _task("t"))
    key = id(submit.__code__)
    keys = [frame for frame in _repeats if frame[1] == key]
    assert keys == [("shaped", key, keys[0][2])] and _repeats[keys[0]] is False
    assert _line_tables[key][2] == keys
    session.drain()
    ref = _line_tables[key][0]
    del submit
    assert ref() is None
    assert key not in _line_tables
    assert not any(frame[1] == key for frame in _repeats)


def _handlers_before_their_ends(pool, n):
    """On 3.11, ``with`` after ``except`` gives exception handlers that
    precede the end of the range they guard, with no loop around them."""
    try:
        pool.submit(n)
    except LookupError:
        n -= 1
    with pool:
        pool.submit(n)


# A loop whose jump back needs an EXTENDED_ARG.
exec("def _long_loop(pool):\n    for _ in range(2):\n"
     + "        pool.submit(1)\n" * 40)


@pytest.mark.parametrize("fn", [loop, while_loop, retry, comprehension,
                                _submit_many, nested_loops, recursion,
                                _handlers_before_their_ends, _long_loop,
                                _Capture.context, _Capture.resolve],
                         ids=lambda fn: fn.__name__)
def test_repeat_spans_agree_with_dis(fn):
    """The spans cover each instruction that dis's jump targets and
    exception table say can run again, and cover a call exactly when they
    say so. (Where a jump has cache entries, a span may start earlier.)"""
    code = fn.__code__
    if fn is comprehension and sys.version_info < (3, 12):
        code = next(c for c in code.co_consts if isinstance(c, types.CodeType))
    bytecode = dis.Bytecode(code)
    back = [(ins.argval, ins.offset) for ins in bytecode
            if ins.opcode in _JUMPS and ins.argval <= ins.offset]
    handlers = [(entry.target, entry.end)
                for entry in getattr(bytecode, "exception_entries", ())
                if entry.target < entry.end]
    assert back or handlers or fn is _handlers_before_their_ends
    spans = _repeat_spans(code)
    for ins in bytecode:
        want = any(lo <= ins.offset <= hi for lo, hi in back) or any(
            lo <= ins.offset < hi for lo, hi in handlers)
        got = any(lo <= ins.offset < hi for lo, hi in spans)
        assert got == want if ins.opname.startswith("CALL") else got >= want, ins


def _call_once(submit, pool):
    """A caller that does not loop, so that the capture tests ``submit``'s
    own frame."""
    submit(pool, _task("shaped"))


def test_reused_code_ids_are_scanned_again():
    """Helpers that loop and helpers that do not, in turn, each dropped
    before the next is made: a code that takes the other shape's id has
    its own answer, and the unit holds the frame the rule names."""
    shape_of_id = {}
    reused = 0
    for i in range(16):
        session = OracleSession(clock=VirtualClock())
        pool = session.pool_executor(core_size=1, max_size=1)
        loops = bool(i % 2)
        submit = _shaped_submit(loops)
        reused += shape_of_id.get(id(submit.__code__), loops) != loops
        shape_of_id[id(submit.__code__)] = loops
        _call_once(submit, pool)
        assert session.oracle.held == loops
        session.drain()
        assert session.oracle.mismatches == []
        # The oracle keeps the codes it walked, and a session is in cycles.
        del session, pool, submit
        gc.collect()
    if not reused:
        pytest.skip("no code took the id of the other shape's")


def test_threads_share_the_repeat_table():
    """Sessions on more threads than cores test the same new helpers of
    both shapes at once: every unit holds what the rule names, and once the
    helpers are gone no key of theirs is left."""
    n_threads, n_helpers = 4, 40
    helpers = [_shaped_submit(bool(j % 2)) for j in range(n_helpers)]
    sessions = [OracleSession(clock=VirtualClock()) for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads, timeout=10)

    def worker(session):
        pool = session.pool_executor(core_size=1, max_size=1)
        barrier.wait()
        for submit in helpers:
            _call_once(submit, pool)

    threads = [threading.Thread(target=worker, args=(s,)) for s in sessions]
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
    for session in sessions:
        session.drain()
        # A looping helper submits twice, and its frame is held.
        assert session.oracle.captures == n_helpers * 3 // 2
        assert session.oracle.held == n_helpers // 2
        assert session.oracle.mismatches == []
    del session, sessions, threads, helpers
    gc.collect()
    assert not any(frame[0] == "shaped" for frame in _repeats)


def test_module_test_agrees_with_startswith():
    session = OracleSession(clock=VirtualClock())
    foreign(session)
    session.drain()
    assert session.oracle.mismatches == []
    modules = {frame.rsplit(":", 2)[0]
               for context, _ in session.oracle.returned
               for frame in context.frames}
    # "asyncscope.runtime_helpers" starts with "asyncscope.runtime"; only
    # the module named exactly "threading" is internal.
    assert not {"asyncscope.runtime_helpers", "threading"} & modules
    assert {"asyncscope", "threading_utils", "?"} <= modules


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
    # The first walk holds its first user frame, the loop's own: its caller
    # is at an instruction that runs once. The other 19 submissions find it.
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


@pytest.mark.parametrize("release", ["another_site", "drain"])
@pytest.mark.parametrize("clock", [VirtualClock, RealMonotonicClock],
                         ids=["virtual", "real"])
def test_fast_entry_pins_nothing_the_held_frame_does_not(clock, release):
    """The loop's frame is held with a fast entry for its helper's site. A
    local of that frame dies by refcount, with no collection, as soon as a
    capture from another site replaces the held frame, or at drain."""
    session = ProfilerSession(clock=clock())
    gc.disable()
    try:
        ref = _submit_from_loop(session, _task("t"))
        assert session._capture._held[2] is not None
        assert ref() is not None
        if release == "another_site":
            _submit(session.pool_executor(core_size=1, max_size=1),
                    _task("elsewhere"))
        else:
            session.drain(timeout_s=10)
        assert ref() is None
    finally:
        gc.enable()
    session.drain(timeout_s=10)


def _site(pool, refs):
    local = _Local()
    refs.append(weakref.ref(local))
    _submit(pool, _task("site"))


def test_returned_frames_are_not_held():
    """Each call of a site is a new frame that submits once, through a
    helper that does not loop either, so no capture holds it: its locals
    go as it returns."""
    session = ProfilerSession(clock=VirtualClock())
    pool = session.pool_executor(core_size=1, max_size=1)
    refs = []
    for _ in range(6):
        _site(pool, refs)
    pool.submit(_task("elsewhere"))
    assert [ref() for ref in refs] == [None] * 6
    session.drain()


def _chain(k, pool, refs):
    if k:
        return _chain(k - 1, pool, refs)
    local = _Local()
    refs.append(weakref.ref(local))
    _submit(pool, _task("chain"))


def test_straight_line_site_holds_nothing():
    """A site at the bottom of a 40-frame chain, where no frame loops:
    nothing is held, and the site's locals die as it returns, before any
    other capture could let them go."""
    session = OracleSession(clock=VirtualClock())
    pool = session.pool_executor(core_size=1, max_size=1)
    refs = []
    _chain(40, pool, refs)
    assert refs[0]() is None
    assert session.oracle.held == 0 and session.capture_walks == 1
    session.drain()
    assert session.oracle.mismatches == []


def _wait_with_a_local(session, pool, kept):
    """Runs the dispatch loop from a frame that holds a local, with
    captures at several depths above the loop, and returns a weak
    reference to that local; notes in ``kept`` whether the unit named the
    loop's frame at its end."""
    local = _Local()
    ref = weakref.ref(local)
    for i in range(PER_LOOP):
        session.call_at(i * MS, _at_depth((0, 1, 3, 30)[i % 4], pool))
    session.call_at(PER_LOOP * MS,
                    lambda: kept.append(session._capture.stop is not None))
    session.wait_idle()
    return ref


def test_dispatch_frame_is_let_go():
    """Once the loop returns, the unit holds neither its frame nor any
    frame below it: the local of the function that ran the loop dies as
    that function returns, with no collection."""
    session = ProfilerSession(clock=VirtualClock())
    pool = session.pool_executor(core_size=1, max_size=1)
    kept = []
    gc.disable()
    try:
        ref = _wait_with_a_local(session, pool, kept)
        assert ref() is None
    finally:
        gc.enable()
    assert kept == [True]  # the unit had named the loop's frame
    assert session.capture_walks == PER_LOOP and session._capture.stop is None
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
    return unit.context(2), uncached_walk(sys._getframe(1), DEFAULT_CAPTURE_DEPTH)[0]


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
    # The first resolve emptied the table: the second names no frame, not
    # even one that the process-wide table already names.
    assert unit._contexts == {}
    monkeypatch.setattr(runtime, "_names", {})
    monkeypatch.setattr(runtime, "_name", None)
    unit.resolve([])
    assert all(context.frames == formatted(want) for context, want in got)
