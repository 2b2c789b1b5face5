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
    _EVENT_FIELDS,
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
    # An escape is exactly two hex digits: int(..., 16) alone would read
    # these as 0x0f, 0x0f, 0x00 and 0x00.
    (6, 6, "%+f", "bad escape %'+f'"),
    (7, 11, "% f", "bad escape %' f'"),
    (2, 3, "m:f:1;a%-0", "bad escape %'-0'"),
    (8, 11, "%\u0660\u0660", "bad escape %'\u0660\u0660'"),
])
def test_bad_field_after_cached_values_positioned(line_no, field, value, message):
    """A field whose earlier occurrences decoded and were cached still
    fails at the line where it first goes bad."""
    _assert_mutation_fails(line_no, field, value, MalformedLine, message)


def _mutated(line_no, field, value):
    """The `_repeated_events` trace with one field of one line set to
    `value` (the whole line when `field` is None)."""
    lines = encode_session(_session(_repeated_events())).decode().splitlines()
    if field is None:
        lines[line_no - 1] = value
    else:
        fields = lines[line_no - 1].split("|")
        fields[field] = value
        lines[line_no - 1] = "|".join(fields)
    return ("\n".join(lines) + "\n").encode()


def _assert_mutation_fails(line_no, field, value, error, message):
    """Mutate the `_repeated_events` trace and expect `error` positioned
    at the mutated line."""
    with pytest.raises(error) as exc_info:
        parse_trace(_mutated(line_no, field, value))
    assert exc_info.value.line_no == line_no
    assert str(exc_info.value) == f"line {line_no}: {message}"


_BIG = "1234567890123456789012345"
_BAD_VALUES = ("", "x", "-1", "%", "%+f", _BIG)
# What parse_trace makes of each bad value in each field of an EV line of
# the `_repeated_events` trace (lines 3-8): the error class and message at
# the mutated line, or None when the trace parses. Written from the parser
# as it was before its loop stopped calling a helper per field, so the
# table pins every check's order. The one difference is the malformed
# escape "%+f" in a key (field 6) or detail (field 11), which that parser
# decoded as "\x0f".
_PARSE_OUTCOMES = {
    (0, ""): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (0, "x"): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (0, "-1"): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (0, "%"): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (0, "%+f"): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (0, _BIG): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (1, ""): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (1, "x"): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (1, "-1"): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (1, "%"): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (1, "%+f"): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (1, _BIG): (MalformedLine, "not a PD2|EV or PD2|CTX record"),
    (2, ""): (MalformedLine, "seq is not an integer: ''"),
    (2, "x"): (MalformedLine, "seq is not an integer: 'x'"),
    (2, "-1"): (MalformedLine, "seq below 1: -1"),
    (2, "%"): (MalformedLine, "seq is not an integer: '%'"),
    (2, "%+f"): (MalformedLine, "seq is not an integer: '%+f'"),
    (2, _BIG): None,
    (3, ""): (MalformedLine, "timestamp is not an integer: ''"),
    (3, "x"): (MalformedLine, "timestamp is not an integer: 'x'"),
    (3, "-1"): (MalformedLine, "timestamp below 0: -1"),
    (3, "%"): (MalformedLine, "timestamp is not an integer: '%'"),
    (3, "%+f"): (MalformedLine, "timestamp is not an integer: '%+f'"),
    (3, _BIG): None,
    (4, ""): (UnknownKind, "unknown event kind ''"),
    (4, "x"): (UnknownKind, "unknown event kind 'x'"),
    (4, "-1"): (UnknownKind, "unknown event kind '-1'"),
    (4, "%"): (UnknownKind, "unknown event kind '%'"),
    (4, "%+f"): (UnknownKind, "unknown event kind '%+f'"),
    (4, _BIG): (UnknownKind, f"unknown event kind '{_BIG}'"),
    (5, ""): (MalformedLine, "unknown mechanism ''"),
    (5, "x"): (MalformedLine, "unknown mechanism 'x'"),
    (5, "-1"): (MalformedLine, "unknown mechanism '-1'"),
    (5, "%"): (MalformedLine, "unknown mechanism '%'"),
    (5, "%+f"): (MalformedLine, "unknown mechanism '%+f'"),
    (5, _BIG): (MalformedLine, f"unknown mechanism '{_BIG}'"),
    (6, ""): None,
    (6, "x"): None,
    (6, "-1"): None,
    (6, "%"): (MalformedLine, "truncated escape near ''"),
    (6, "%+f"): (MalformedLine, "bad escape %'+f'"),
    (6, _BIG): None,
    (7, ""): (MalformedLine, "thread_id is not an integer: ''"),
    (7, "x"): (MalformedLine, "thread_id is not an integer: 'x'"),
    (7, "-1"): (MalformedLine, "thread_id below 0: -1"),
    (7, "%"): (MalformedLine, "thread_id is not an integer: '%'"),
    (7, "%+f"): (MalformedLine, "thread_id is not an integer: '%+f'"),
    (7, _BIG): None,
    (8, ""): (MalformedLine, "parent_thread_id is not an integer: ''"),
    (8, "x"): (MalformedLine, "parent_thread_id is not an integer: 'x'"),
    (8, "-1"): (MalformedLine, "parent_thread_id below 0: -1"),
    (8, "%"): (MalformedLine, "parent_thread_id is not an integer: '%'"),
    (8, "%+f"): (MalformedLine, "parent_thread_id is not an integer: '%+f'"),
    (8, _BIG): (MalformedLine, "main thread cannot have a parent"),
    (9, ""): (MalformedLine, "is_main must be 0 or 1, got ''"),
    (9, "x"): (MalformedLine, "is_main must be 0 or 1, got 'x'"),
    (9, "-1"): (MalformedLine, "is_main must be 0 or 1, got '-1'"),
    (9, "%"): (MalformedLine, "is_main must be 0 or 1, got '%'"),
    (9, "%+f"): (MalformedLine, "is_main must be 0 or 1, got '%+f'"),
    (9, _BIG): (MalformedLine, f"is_main must be 0 or 1, got '{_BIG}'"),
    (10, ""): (MalformedLine, "unknown context id ''"),
    (10, "x"): (MalformedLine, "unknown context id 'x'"),
    (10, "-1"): (MalformedLine, "unknown context id '-1'"),
    (10, "%"): (MalformedLine, "unknown context id '%'"),
    (10, "%+f"): (MalformedLine, "unknown context id '%+f'"),
    (10, _BIG): (MalformedLine, f"unknown context id '{_BIG}'"),
    (11, ""): None,
    (11, "x"): None,
    (11, "-1"): None,
    (11, "%"): (MalformedLine, "truncated escape near ''"),
    (11, "%+f"): (MalformedLine, "bad escape %'+f'"),
    (11, _BIG): None,
}
# Where a line's own role changes the outcome: a seq above every later
# one fails at the next line, a Spawn (line 4) carries no task key, and
# a parent id is refused only for the main thread (lines 3, 5 and 8).
_LINE_OUTCOMES = {
    (3, 2, _BIG): (4, NonMonotonicSeq, f"seq 2 after {_BIG}"),
    (4, 2, _BIG): (5, NonMonotonicSeq, f"seq 3 after {_BIG}"),
    (5, 2, _BIG): (6, NonMonotonicSeq, f"seq 4 after {_BIG}"),
    (6, 2, _BIG): (7, NonMonotonicSeq, f"seq 5 after {_BIG}"),
    (7, 2, _BIG): (8, NonMonotonicSeq, f"seq 6 after {_BIG}"),
    (4, 6, ""): (4, MalformedLine, "Spawn must not carry mechanism/task_key"),
    (4, 6, "x"): (4, MalformedLine, "Spawn must not carry mechanism/task_key"),
    (4, 6, "-1"): (4, MalformedLine, "Spawn must not carry mechanism/task_key"),
    (4, 6, _BIG): (4, MalformedLine, "Spawn must not carry mechanism/task_key"),
    (4, 8, _BIG): None,
    (6, 8, _BIG): None,
    (7, 8, _BIG): None,
}


@pytest.mark.parametrize("line_no", range(3, 9))
@pytest.mark.parametrize("field", range(_EVENT_FIELDS))
def test_every_bad_event_field_keeps_its_outcome(line_no, field):
    """Each bad value in each field of each EV line parses, or fails with
    the class, line and message in the table."""
    for value in _BAD_VALUES:
        want = _LINE_OUTCOMES.get((line_no, field, value), False)
        if want is False:
            want = _PARSE_OUTCOMES[field, value]
            want = want and (line_no, *want)
        data = _mutated(line_no, field, value)
        if want is None:
            parse_trace(data)
            continue
        at, error, message = want
        with pytest.raises(TraceLogError) as exc_info:
            parse_trace(data)
        assert type(exc_info.value) is error, value
        assert exc_info.value.line_no == at, value
        assert str(exc_info.value) == f"line {at}: {message}"


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
