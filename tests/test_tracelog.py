"""Round-trip and robustness tests for the trace log codec."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncscope.scenarios import run_scenario
from asyncscope.tracelog import (
    MalformedLine,
    MissingHeader,
    NonMonotonicSeq,
    TraceLogError,
    UnknownKind,
    _escape,
    encode_session,
    parse_trace,
    read_trace,
    write_trace,
)
from asyncscope.trace_model import (
    EventKind,
    ExecutionContext,
    Mechanism,
    TaskEvent,
    ThreadIdentity,
    TraceSession,
)
from test_acceptance import _random_session

MAIN = ThreadIdentity(1, None, True)


def _session(events, session_id="s", label="cfg", origin=0):
    return TraceSession(session_id, label, origin, tuple(events))


def test_exact_schedule_line():
    event = TaskEvent(
        timestamp_ns=100,
        kind=EventKind.SCHEDULE,
        mechanism=Mechanism.ASYNC_FACADE,
        task_key="AFACADE#1",
        thread=MAIN,
        context=ExecutionContext(("a:b:1",)),
        detail=None,
    )
    assert encode_session(_session([event])).decode().splitlines() == [
        "PD2|SESSION|s|cfg|0",
        "PD2|CTX|0|a:b:1",
        "PD2|EV|1|100|SCHED|AFACADE|AFACADE#1|1|_|1|0|_",
    ]


def test_detail_pipe_escaped():
    event = TaskEvent(
        timestamp_ns=0, kind=EventKind.END,
        mechanism=Mechanism.POOL_EXECUTOR, task_key="POOL#1",
        thread=MAIN, detail="a|b",
    )
    line = encode_session(_session([event])).decode().splitlines()[1]
    assert "%7C" in line
    assert "a|b" not in line


def test_spawn_has_sentinel_mechanism():
    event = TaskEvent(
        timestamp_ns=5, kind=EventKind.SPAWN, mechanism=None, task_key=None,
        thread=ThreadIdentity(2, 1, False),
    )
    fields = encode_session(_session([event])).decode().splitlines()[1].split("|")
    assert fields[4] == "SPAWN"
    assert fields[5] == "_" and fields[6] == "_"


def test_header_only_round_trip():
    data = encode_session(_session([]))
    parsed = parse_trace(data)
    assert parsed == _session([])


def test_missing_header():
    with pytest.raises(MissingHeader):
        parse_trace(b"")
    with pytest.raises(MissingHeader):
        parse_trace(b"not a trace\n")


def test_non_monotonic_seq_positioned():
    lines = encode_session(_session(_three_events())).decode().splitlines()
    lines[3], lines[4] = lines[4], lines[3]  # header, CTX, then seq order 1,3,2
    data = ("\n".join(lines) + "\n").encode()
    with pytest.raises(NonMonotonicSeq) as exc_info:
        parse_trace(data)
    assert exc_info.value.line_no == 5


def _three_events():
    return [
        TaskEvent(0, EventKind.SCHEDULE, Mechanism.POOL_EXECUTOR, "POOL#1",
                  MAIN, ExecutionContext(("m:f:1",)), "t"),
        TaskEvent(1, EventKind.START, Mechanism.POOL_EXECUTOR, "POOL#1",
                  ThreadIdentity(2, 1, False)),
        TaskEvent(2, EventKind.END, Mechanism.POOL_EXECUTOR, "POOL#1",
                  ThreadIdentity(2, 1, False)),
    ]


def test_unknown_kind_positioned():
    data = encode_session(_session(_three_events()))
    mutated = data.replace(b"|START|", b"|BOING|")
    with pytest.raises(UnknownKind) as exc_info:
        parse_trace(mutated)
    assert exc_info.value.line_no == 4


def test_unknown_mechanism_positioned():
    data = encode_session(_session(_three_events()))
    mutated = data.replace(b"|START|POOL|", b"|START|BOGUS|")
    with pytest.raises(MalformedLine) as exc_info:
        parse_trace(mutated)
    assert exc_info.value.line_no == 4


def test_file_round_trip(tmp_path):
    path = tmp_path / "trace.pdt"
    session = _session(_three_events(), session_id="disk", label="real run")
    write_trace(session, path)
    assert read_trace(path) == session


def test_schedules_from_one_site_share_one_context():
    session = parse_trace(encode_session(run_scenario("sequential_execute").session))
    by_frames = {}
    for ev in session.events:
        if ev.kind is EventKind.SCHEDULE:
            assert by_frames.setdefault(ev.context.frames, ev.context) is ev.context
    assert len(by_frames) < sum(ev.kind is EventKind.SCHEDULE for ev in session.events)


def test_each_context_written_once():
    session = run_scenario("sequential_execute").session
    data = encode_session(session)
    frames = {ev.context.frames for ev in session.events if ev.context is not None}
    assert frames
    for context in frames:
        assert data.count(";".join(map(_escape, context)).encode()) == 1
    assert data.count(b"\nPD2|CTX|") == len(frames)


_WORKER = ThreadIdentity(2, 1, False)
_SITE = ExecutionContext(("m:f:1", "a%b:g:2"))  # encoded as m:f:1;a%25b:g:2


def _repeated_events():
    """Six event lines (3-8) that repeat the main thread, one worker and
    the one context that line 2 defines."""
    pool = Mechanism.POOL_EXECUTOR
    return [
        TaskEvent(0, EventKind.SCHEDULE, pool, "POOL#1", MAIN, _SITE),
        TaskEvent(0, EventKind.SPAWN, None, None, _WORKER),
        TaskEvent(0, EventKind.SCHEDULE, pool, "POOL#2", MAIN, _SITE),
        TaskEvent(1, EventKind.START, pool, "POOL#1", _WORKER),
        TaskEvent(2, EventKind.END, pool, "POOL#1", _WORKER),
        TaskEvent(3, EventKind.SCHEDULE, pool, "POOL#3", MAIN, _SITE),
    ]


@pytest.mark.parametrize("line_no, field, value, message", [
    (8, 9, "2", "is_main must be 0 or 1, got '2'"),
    (6, 9, "x", "is_main must be 0 or 1, got 'x'"),
    (2, 3, "m:f:1;a%2", "truncated escape near '2'"),
    (7, 5, "BOGUS", "unknown mechanism 'BOGUS'"),
    (8, 8, "7", "main thread cannot have a parent"),
    (6, 5, "_", "START requires mechanism and task_key"),
    (7, 6, "_", "END requires mechanism and task_key"),
    (3, 10, "_", "Schedule requires a context"),
])
def test_bad_field_after_cached_values_positioned(line_no, field, value, message):
    """A field whose earlier occurrences decoded and were cached still
    fails at the line where it first goes bad."""
    _assert_mutation_fails(line_no, field, value, MalformedLine, message)


def _assert_mutation_fails(line_no, field, value, error, message):
    """Set one field of one line of the `_repeated_events` trace (the whole
    line when `field` is None) and expect `error` positioned there."""
    lines = encode_session(_session(_repeated_events())).decode().splitlines()
    if field is None:
        lines[line_no - 1] = value
    else:
        fields = lines[line_no - 1].split("|")
        fields[field] = value
        lines[line_no - 1] = "|".join(fields)
    with pytest.raises(error) as exc_info:
        parse_trace(("\n".join(lines) + "\n").encode())
    assert exc_info.value.line_no == line_no
    assert str(exc_info.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("line_no, field, value, error, message", [
    (2, 2, "1", MalformedLine, "context id '1' out of order, expected 0"),
    (2, 2, "00", MalformedLine, "context id '00' out of order, expected 0"),
    (3, None, "PD2|CTX|0|m:f:1", MalformedLine,
     "context id '0' out of order, expected 1"),
    (8, 10, "1", MalformedLine, "unknown context id '1'"),
    (3, 10, "\u0660", MalformedLine, "unknown context id '\u0660'"),
    (2, None, "PD2|CTX|0|m:f:1|x", MalformedLine,
     "expected 4 fields in a CTX record, got 5"),
    (2, None, "PD2|CTX|0", MalformedLine, "expected 4 fields in a CTX record, got 3"),
    (1, None, "PD1|SESSION|s|cfg|0", MissingHeader,
     "trace version 'PD1' is not read; this reader takes PD2"),
])
def test_context_table_and_version_errors_positioned(line_no, field, value, error,
                                                     message):
    """Context ids are dense in first-use order and resolved by their exact
    text (an Arabic-Indic zero is not 0); a PD1 stream is refused at its
    header, naming its version."""
    _assert_mutation_fails(line_no, field, value, error, message)


_name = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    min_size=0, max_size=20,
)
_frame = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    min_size=1, max_size=30,
)
# Force the escaping-hostile characters in regularly.
_hostile = st.sampled_from(["|", ";", "%", "_", "%7C", "a|b;c%d", "\n", "%%"])
_detail = st.one_of(st.none(), _name, _hostile)


@st.composite
def _sessions(draw):
    threads = {1: MAIN}
    events = []
    t = 0
    for i in range(draw(st.integers(0, 12))):
        t += draw(st.integers(0, 1000))
        kind = draw(st.sampled_from(list(EventKind)))
        tid = draw(st.integers(1, 5))
        thread = threads.setdefault(tid, ThreadIdentity(tid, 1, False))
        if kind is EventKind.SPAWN:
            events.append(TaskEvent(t, kind, None, None, thread,
                                    detail=draw(_detail)))
            continue
        mech = draw(st.sampled_from(list(Mechanism)))
        key = draw(st.one_of(_frame, _hostile))
        context = None
        if kind is EventKind.SCHEDULE:
            frames = tuple(draw(st.lists(st.one_of(_frame, _hostile),
                                         min_size=1, max_size=4)))
            context = ExecutionContext(frames)
        events.append(TaskEvent(t, kind, mech, key, thread, context,
                                draw(_detail)))
    return _session(
        events,
        session_id=draw(st.one_of(_name, _hostile)),
        label=draw(st.one_of(_name, _hostile)),
        origin=draw(st.integers(0, 10**15)),
    )


@settings(max_examples=300)
@given(_sessions())
def test_round_trip_identity(session):
    assert parse_trace(encode_session(session)) == session


def test_encode_of_parse_returns_the_same_bytes():
    """Criterion #7's random sessions, and one whose equal contexts are
    distinct objects: the bytes depend only on the session's value."""
    rng = random.Random(0xDEC0DE)
    sessions = [_random_session(rng) for _ in range(1000)]
    twin = [ExecutionContext(("m:f:1", "x|y")) for _ in range(2)]
    assert twin[0] == twin[1] and twin[0] is not twin[1]
    sessions.append(_session([
        TaskEvent(i, EventKind.SCHEDULE, Mechanism.POOL_EXECUTOR, f"POOL#{i}",
                  MAIN, context)
        for i, context in enumerate(twin)
    ]))
    for session in sessions:
        data = encode_session(session)
        assert encode_session(parse_trace(data)) == data
    assert encode_session(sessions[-1]).count(b"|CTX|") == 1


@settings(max_examples=300)
@given(_sessions(), st.data())
def test_mutated_bytes_never_crash(session, data):
    """Random byte mutations either parse or raise a positioned codec error."""
    raw = bytearray(encode_session(session))
    for _ in range(data.draw(st.integers(1, 4))):
        if not raw:
            break
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] = data.draw(st.integers(0, 255))
    try:
        parse_trace(bytes(raw))
    except TraceLogError as exc:
        assert exc.line_no >= 0
