#!/usr/bin/env python3
"""Regenerate the frozen report fixtures under tests/data/ after a deliberate
format change, then review the diff by hand before committing. Run from
anywhere. The fixtures' contexts record this file's line numbers."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "src"))
from asyncscope.report import build_report, render_json, render_text  # noqa: E402
from asyncscope.scenarios import run_scenario  # noqa: E402
from asyncscope.tracelog import parse_trace, write_trace  # noqa: E402


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    result = run_scenario("sequential_execute")
    trace_path = DATA / "sequential_execute.pdt"
    write_trace(result.session, trace_path)

    # Render from the re-parsed trace so the fixtures pin the whole
    # pipeline: decode, analyze, rank, render.
    report = build_report([parse_trace(trace_path.read_bytes())])
    (DATA / "sequential_execute.txt").write_bytes(render_text(report))
    (DATA / "sequential_execute.json").write_bytes(render_json(report))
    for path in sorted(DATA.iterdir()):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
