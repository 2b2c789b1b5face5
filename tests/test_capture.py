"""Context capture: the anchored walk against the uncached walk it
replaces, and the anchor's lifetime.

``OracleSession`` computes, at every submission, both the session's
capture and the plain walk below from the same frame, and records any
difference. The plain walk is the reference and lives only here.
"""

import sys
import threading
import types
import weakref

import pytest

from asyncscope.clock import RealMonotonicClock, VirtualClock
from asyncscope.runtime import (
    _INTERNAL_MODULES,
    DrainTimeout,
    ProfilerSession,
    Task,
)

MS = 1_000_000


def uncached_walk(f, depth):
    frames = []
    while f is not None and len(frames) < depth:
        module = f.f_globals.get("__name__", "?")
        if not module.startswith(_INTERNAL_MODULES):
            frames.append((module, f.f_code.co_name, f.f_lineno))
        f = f.f_back
    if not frames:
        frames.append(("<unknown>", "<unknown>", 0))
    return tuple(frames)


class OracleSession(ProfilerSession):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.captures = 0
        self.mismatches = []

    def _capture_context(self):
        # Frame 2 is what the session's own capture starts from when
        # _register_task calls it; called from here, it starts one frame
        # lower, at _register_task itself, which the walk skips.
        want = uncached_walk(sys._getframe(2), self.capture_depth)
        got = super()._capture_context()
        self.captures += 1
        if got != want:
            self.mismatches.append((got, want))
        return got


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
            # The anchor adopted through the helper is now the first user
            # frame, and needs one more of its callers.
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
    """Submissions from below more frames than capture_depth keeps."""
    def down(k):
        if k:
            down(k - 1)
        else:
            helper(s)

    down(40)


def depth_change(s):
    pool = s.pool_executor(core_size=2, max_size=2)
    for i in range(20):
        if i == 10:
            s.capture_depth += 2
        _submit(pool, _task("changed"))


CASES = [loop, two_lines, helper, recursion, generators, nested, deep,
         depth_change]


@pytest.mark.parametrize("depth", [1, 2, 32])
@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_capture_equals_uncached_walk(case, depth):
    session = OracleSession(clock=VirtualClock(), capture_depth=depth)
    case(session)
    session.drain()
    assert session.captures > 0
    assert session.mismatches == []


@pytest.mark.parametrize("case", [loop, two_lines, helper, nested, deep])
def test_loops_reuse_the_anchor(case):
    session = OracleSession(clock=VirtualClock())
    case(session)
    session.drain()
    assert session.capture_walks < session.captures / 2


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
    session.drain(timeout_s=60)
    assert session.captures == n_threads * per_thread
    assert session.mismatches == []


def test_capture_walks_counts_full_walks_only():
    session = ProfilerSession(clock=VirtualClock())
    loop(session)
    # The first two walks see the same second user frame; the second
    # adopts it, and the other 18 submissions reuse it.
    assert session.capture_walks == 2
    session.drain()
    off = ProfilerSession(clock=VirtualClock(), emit_events=False)
    loop(off)
    assert off.capture_walks == 0


# -- the anchor's lifetime ------------------------------------------------------


class _Local:
    pass


def _submit_from_loop(s, task, then_drain=False):
    """Submit through a helper from a loop, so that this frame becomes the
    anchor, and return a weak reference to one of its locals."""
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
