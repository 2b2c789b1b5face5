"""Line-based trace log format (`.pdt`): writer and parser.

One record per line, '|'-separated fields, ';'-separated context frames,
percent escaping for the delimiter characters. UTF-8, LF line endings.
The format is versioned by the `PD2` prefix; a stream of any other
version is rejected at its header.

A session's Schedule events share few distinct contexts, so each context
is written once: a `PD2|CTX|<id>|<frames>` line defines it just before
the first Schedule that uses it, ids count up from 0 in that order, and
a Schedule's context field holds only the id.
"""

from __future__ import annotations

from .trace_model import (
    EventKind,
    ExecutionContext,
    Mechanism,
    TaskEvent,
    ThreadIdentity,
    TraceSession,
)

MAGIC = "PD2"

_EVENT_FIELDS = 12  # PD2|EV|seq|ts|kind|mech|key|tid|ptid|is_main|context id|detail
_CONTEXT_FIELDS = 4  # PD2|CTX|id|frames
_CTX = f"{MAGIC}|CTX|"


class TraceLogError(Exception):
    """Base for codec failures; `line_no` positions the failure (1-based,
    0 when the whole stream is at fault)."""

    def __init__(self, message: str, line_no: int = 0) -> None:
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


class MissingHeader(TraceLogError):
    pass


class MalformedLine(TraceLogError):
    pass


class NonMonotonicSeq(TraceLogError):
    pass


class UnknownKind(TraceLogError):
    pass


def _escape(value: str) -> str:
    out = (
        value.replace("%", "%25")
        .replace("|", "%7C")
        .replace(";", "%3B")
        .replace("\n", "%0A")
    )
    # A bare underscore is the absent-field sentinel; keep it round-trippable.
    return "%5F" if out == "_" else out


_HEX = frozenset("0123456789abcdefABCDEF")


def _unescape(value: str, line_no: int) -> str:
    if "%" not in value:
        return value
    parts = value.split("%")
    out = [parts[0]]
    for chunk in parts[1:]:
        if len(chunk) < 2:
            raise MalformedLine(f"truncated escape near {chunk!r}", line_no)
        pair = chunk[:2]
        if not _HEX.issuperset(pair):  # int(pair, 16) also takes a sign or a space
            raise MalformedLine(f"bad escape %{pair!r}", line_no)
        out.append(chr(int(pair, 16)))
        out.append(chunk[2:])
    return "".join(out)


def encode_session(session: TraceSession) -> bytes:
    """Serialize a whole session; deterministic bytes, LF terminated lines.

    Each context's frames, each thread's three fields and each distinct
    task key or detail are formatted once per session, and the kind and
    mechanism tags are read from the members' `_value_`. Contexts are
    numbered by value, so equal contexts share one id whatever their
    identity, and the bytes depend only on the session's value. The
    thread table's `id()` keys are sound because the session holds every
    thread alive while it is encoded.
    """
    lines = [
        f"{MAGIC}|SESSION|{_escape(session.session_id)}|"
        f"{_escape(session.config_label)}|{session.clock_origin_ns}"
    ]
    append = lines.append
    context_ids: dict[tuple[str, ...], str] = {}  # frames -> id text
    threads: dict[int, str] = {}  # id(thread) -> its three fields
    texts: dict[str | None, str] = {None: "_"}  # key or detail -> field text
    for seq, (ts, kind, mech, key, thread, context, detail) in enumerate(
            session.events, start=1):
        thread_text = threads.get(id(thread))
        if thread_text is None:
            parent = thread.parent_thread_id
            thread_text = threads[id(thread)] = (
                f"{thread.thread_id}|{'_' if parent is None else parent}|"
                f"{'1' if thread.is_main else '0'}")
        if context is None:
            context_text = "_"
        else:
            frames = context.frames
            context_text = context_ids.get(frames)
            if context_text is None:
                context_text = context_ids[frames] = str(len(context_ids))
                append(f"{_CTX}{context_text}|{';'.join(map(_escape, frames))}")
        key_text = texts.get(key)
        if key_text is None:
            key_text = texts[key] = _escape(key)
        detail_text = texts.get(detail)
        if detail_text is None:
            detail_text = texts[detail] = _escape(detail)
        mech_text = "_" if mech is None else mech._value_
        append(f"{MAGIC}|EV|{seq}|{ts}|{kind._value_}|{mech_text}|{key_text}|"
               f"{thread_text}|{context_text}|{detail_text}")
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def count_contexts(data: bytes) -> int:
    """How many contexts a stream that parses defines: fields escape every
    newline, so each CTX record, and only it, starts a line this way."""
    return data.count(f"\n{_CTX}".encode())


def _parse_int(text: str, what: str, line_no: int, minimum: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        raise MalformedLine(f"{what} is not an integer: {text!r}", line_no) from None
    if value < minimum:
        raise MalformedLine(f"{what} below {minimum}: {value}", line_no)
    return value


_KINDS = {kind.value: kind for kind in EventKind}
_MECHANISMS = {mech.value: mech for mech in Mechanism}
_MECHANISMS["_"] = None


def _decode_thread(tid: str, ptid: str, is_main: str, line_no: int) -> ThreadIdentity:
    thread_id = _parse_int(tid, "thread_id", line_no)
    parent = None if ptid == "_" else _parse_int(ptid, "parent_thread_id", line_no)
    if is_main not in ("0", "1"):
        raise MalformedLine(f"is_main must be 0 or 1, got {is_main!r}", line_no)
    try:
        return ThreadIdentity(thread_id, parent, is_main == "1")
    except ValueError as exc:
        raise MalformedLine(str(exc), line_no) from None


def _decode_context(fields: list[str], next_id: str, line_no: int) -> ExecutionContext:
    """Decode a CTX record, which must define the next id in order."""
    if len(fields) != _CONTEXT_FIELDS:
        raise MalformedLine(
            f"expected {_CONTEXT_FIELDS} fields in a CTX record, got {len(fields)}",
            line_no)
    if fields[2] != next_id:
        raise MalformedLine(
            f"context id {fields[2]!r} out of order, expected {next_id}", line_no)
    return ExecutionContext(
        tuple(_unescape(frame, line_no) for frame in fields[3].split(";")))


def _parse_events(lines: list[str]) -> list[TaskEvent]:
    """Decode the CTX and EV lines that follow the header (line 2 onwards).

    A context reference is resolved by looking its exact text up in the
    table of ids defined so far, never by reading it as a number. Each
    distinct thread field is decoded once and its value shared. Decoding
    is a pure function of the text: a cache hit skips only checks that
    already passed, and every failure is still raised at the line that
    holds it. The loop calls no helper on a well-formed line: a key or a
    detail is unescaped only when it holds a `%`, and each event is built
    with `tuple.__new__`.
    """
    SPAWN, SCHEDULE = EventKind.SPAWN, EventKind.SCHEDULE
    kinds, mechanisms = _KINDS, _MECHANISMS
    threads: dict[tuple[str, str, str], ThreadIdentity] = {}
    contexts: dict[str, ExecutionContext | None] = {"_": None}
    events: list[TaskEvent] = []
    append = events.append
    new = tuple.__new__
    last_seq = 0
    for line_no, line in enumerate(lines, start=2):
        fields = line.split("|")
        if len(fields) != _EVENT_FIELDS or fields[1] != "EV" or fields[0] != MAGIC:
            if fields[0] != MAGIC or fields[1:2] not in (["EV"], ["CTX"]):
                raise MalformedLine(f"not a {MAGIC}|EV or {MAGIC}|CTX record", line_no)
            if fields[1] == "EV":
                raise MalformedLine(
                    f"expected {_EVENT_FIELDS} fields, got {len(fields)}", line_no)
            next_id = str(len(contexts) - 1)
            contexts[next_id] = _decode_context(fields, next_id, line_no)
            continue
        (_, _, seq_text, ts_text, kind_text, mech_text, key,
         tid, ptid, is_main, ctx_text, detail) = fields
        try:
            seq = int(seq_text)
            ts = int(ts_text)
        except ValueError:
            seq = ts = -1
        if seq < 1 or ts < 0:  # _parse_int raises the positioned error
            seq = _parse_int(seq_text, "seq", line_no, minimum=1)
            ts = _parse_int(ts_text, "timestamp", line_no)
        kind = kinds.get(kind_text)
        if kind is None:
            raise UnknownKind(f"unknown event kind {kind_text!r}", line_no)
        mech = mechanisms.get(mech_text, False)
        if mech is False:
            raise MalformedLine(f"unknown mechanism {mech_text!r}", line_no)
        if key == "_":
            key = None
        elif "%" in key:
            key = _unescape(key, line_no)

        if kind is SPAWN:
            if mech is not None or key is not None:
                raise MalformedLine("Spawn must not carry mechanism/task_key", line_no)
        elif mech is None or key is None:
            raise MalformedLine(f"{kind.value} requires mechanism and task_key", line_no)

        thread = threads.get((tid, ptid, is_main))
        if thread is None:
            thread = threads[tid, ptid, is_main] = _decode_thread(
                tid, ptid, is_main, line_no)

        ctx = contexts.get(ctx_text, False)
        if ctx is False:
            raise MalformedLine(f"unknown context id {ctx_text!r}", line_no)
        if kind is SCHEDULE:
            if ctx is None:
                raise MalformedLine("Schedule requires a context", line_no)
        elif ctx is not None:
            raise MalformedLine(f"{kind.value} must not carry a context", line_no)

        if detail == "_":
            detail = None
        elif "%" in detail:
            detail = _unescape(detail, line_no)
        if seq <= last_seq:
            raise NonMonotonicSeq(f"seq {seq} after {last_seq}", line_no)
        last_seq = seq
        append(new(TaskEvent, (ts, kind, mech, key, thread, ctx, detail)))
    return events


def parse_trace(data: bytes) -> TraceSession:
    """Decode a `.pdt` byte stream back into a session.

    Every failure is a positioned :class:`TraceLogError`; arbitrary input
    never escapes as another exception type.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"invalid UTF-8: {exc}", 0) from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MissingHeader("empty stream")

    header = lines[0].split("|")
    if header[1:2] == ["SESSION"] and header[0] != MAGIC:
        raise MissingHeader(
            f"trace version {header[0]!r} is not read; this reader takes {MAGIC}", 1)
    if len(header) != 5 or header[0] != MAGIC or header[1] != "SESSION":
        raise MissingHeader(f"stream does not begin with a {MAGIC}|SESSION header")
    session_id = _unescape(header[2], 1)
    config_label = _unescape(header[3], 1)
    clock_origin_ns = _parse_int(header[4], "clock_origin_ns", 1)
    return TraceSession(
        session_id=session_id,
        config_label=config_label,
        clock_origin_ns=clock_origin_ns,
        events=tuple(_parse_events(lines[1:])),
    )


def write_trace(session: TraceSession, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_session(session))


def read_trace(path) -> TraceSession:
    with open(path, "rb") as fh:
        return parse_trace(fh.read())
