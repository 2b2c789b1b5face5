"""Command line entry points.

Exit codes: 0 success, 1 scenario expectation mismatch, 2 data, parse
or analysis error, 3 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .analyzer import AnalyzerError, HeuristicConfig
from .clock import RealMonotonicClock, VirtualClock
from .report import build_report, render_json, render_text, write_histogram_csvs
from .scenarios import SCENARIOS, UnknownScenario, run_scenario
from .trace_model import CorrelationError
from .tracelog import TraceLogError, count_contexts, parse_trace, write_trace

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_DATA = 2
EXIT_USAGE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asyncscope",
        description="profile and diagnose asynchronous task execution",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    demo = sub.add_parser(
        "demo", help="run a registered scenario and print its report",
    )
    demo.add_argument("scenario", help="scenario name (see `asyncscope list`)")
    demo.add_argument("--config", help="heuristic threshold overrides (key=value file)")
    demo.add_argument("--out", help="also write the captured trace to this .pdt file")

    analyze = sub.add_parser(
        "analyze", help="analyze one or more recorded .pdt traces",
    )
    analyze.add_argument("traces", nargs="+", metavar="trace.pdt")
    analyze.add_argument("--config", help="heuristic threshold overrides (key=value file)")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--histograms", metavar="DIR",
                         help="write per-group histogram CSVs into DIR")
    analyze.add_argument("--out", help="write the report here instead of stdout")
    analyze.add_argument("--timings", action="store_true",
                         help="print each stage's wall time and counts to stderr")

    sub.add_parser("list", help="list registered scenarios")
    return parser


def _load_config(path: str | None) -> HeuristicConfig:
    if path is None:
        return HeuristicConfig()
    try:
        return HeuristicConfig.from_file(path)
    except OSError as exc:
        raise _DataError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise _DataError(str(exc)) from exc


class _DataError(Exception):
    pass


def _emit(payload: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        try:
            with open(out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _DataError(f"cannot write {out}: {exc.strerror}") from exc


def _default_clock():
    mode = os.environ.get("ASYNCSCOPE_CLOCK", "virtual").strip().lower()
    if mode == "real":
        return RealMonotonicClock()
    if mode == "virtual":
        return VirtualClock()
    raise _DataError(f"ASYNCSCOPE_CLOCK must be 'real' or 'virtual', not {mode!r}")


def _cmd_demo(args) -> int:
    cfg = _load_config(args.config)
    try:
        result = run_scenario(args.scenario, cfg=cfg, clock=_default_clock())
    except UnknownScenario as exc:
        raise _DataError(str(exc)) from exc
    if args.out is not None:
        try:
            write_trace(result.session, args.out)
        except OSError as exc:
            raise _DataError(f"cannot write {args.out}: {exc.strerror}") from exc
    sys.stdout.buffer.write(render_text(result.report))
    expected = sorted(f"{m.value}:{h.value}" for m, h in result.scenario.expected_warnings)
    fired = sorted(f"{m.value}:{h.value}" for m, h in result.fired)
    print(f"scenario:  {result.scenario.name}")
    print(f"expected:  {', '.join(expected) or '(none)'}")
    print(f"fired:     {', '.join(fired) or '(none)'}")
    print(f"verdict:   {'ok' if result.passed else 'MISMATCH'}")
    return EXIT_OK if result.passed else EXIT_EXPECTATION


class _StageTimer:
    """Prints one stderr line per analysis stage: its wall time since the
    previous stage ended, and its counts."""

    def __init__(self) -> None:
        self._mark = time.perf_counter()

    def lap(self, stage: str, **counts) -> None:
        ms = (time.perf_counter() - self._mark) * 1e3
        tail = "".join(f" {name}={value}" for name, value in counts.items())
        print(f"asyncscope: timing {stage:<10} {ms:10.3f} ms{tail}", file=sys.stderr)
        self._mark = time.perf_counter()


def _cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    timer = _StageTimer() if args.timings else None
    sessions = []
    read = contexts = 0
    for path in args.traces:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise _DataError(f"cannot read {path}: {exc.strerror}") from exc
        try:
            sessions.append(parse_trace(data))
        except TraceLogError as exc:
            raise _DataError(f"{path}: {exc}") from exc
        read += len(data)
        if timer is not None:
            contexts += count_contexts(data)
    if timer is not None:
        timer.lap("read+parse", files=len(sessions),
                  events=sum(len(s.events) for s in sessions),
                  bytes=read, contexts=contexts)
    try:
        report = build_report(sessions, cfg=cfg)
    except (CorrelationError, AnalyzerError) as exc:
        raise _DataError(str(exc)) from exc
    if timer is not None:
        timer.lap("build", rows=len(report.rows), histograms=len(report.histograms))
    render = render_json if args.format == "json" else render_text
    payload = render(report)
    if timer is not None:
        timer.lap("render", bytes=len(payload))
    if args.histograms is not None:
        try:
            write_histogram_csvs(report, args.histograms)
        except OSError as exc:
            raise _DataError(f"cannot write {args.histograms}: {exc.strerror}") from exc
    _emit(payload, args.out)
    if timer is not None:
        timer.lap("write")
    return EXIT_OK


def _cmd_list() -> int:
    width = max(len(name) for name in SCENARIOS)
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        tag = "control" if scenario.control else "defect"
        print(f"{name:<{width}}  [{tag}]  {scenario.description}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; map everything else to usage errors.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_list()
    except _DataError as exc:
        print(f"asyncscope: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
