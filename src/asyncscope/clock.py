"""Clock sources for profiling sessions.

The virtual clock makes timing assertions exact: task bodies declare
synthetic durations and the session's scheduler alone advances time, so
repeated runs produce identical traces. To act at a later virtual time,
schedule the action with ``ProfilerSession.call_at``.
"""

from __future__ import annotations

import enum
import time


class ClockMode(enum.Enum):
    REAL_MONOTONIC = "real"
    VIRTUAL = "virtual"


class RealMonotonicClock:
    """Wall clock reporting nanoseconds since its own creation."""

    mode = ClockMode.REAL_MONOTONIC

    def __init__(self) -> None:
        self.origin_ns = time.monotonic_ns()

    def now_ns(self) -> int:
        return time.monotonic_ns() - self.origin_ns


class VirtualClock:
    """Deterministic clock from 0, advanced only by the session's
    scheduler, never by sleeping."""

    mode = ClockMode.VIRTUAL

    origin_ns = 0

    def __init__(self) -> None:
        self._now_ns = 0

    def now_ns(self) -> int:
        return self._now_ns

    def _advance_to(self, t_ns: int) -> None:
        # Scheduler hook; time is non-decreasing by construction.
        if t_ns < self._now_ns:
            raise ValueError("virtual time moved backwards")
        self._now_ns = t_ns


ClockSource = RealMonotonicClock | VirtualClock
