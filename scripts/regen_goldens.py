#!/usr/bin/env python3
"""Rewrite tests/data/ after a deliberate change: the golden trace, its two
reports and the lines of trace_digest.py. Review the diff before committing.
Run from anywhere; the fixtures' contexts record this file's line numbers."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "src"))
from asyncscope.report import build_report, render_json, render_text  # noqa: E402
from asyncscope.scenarios import run_scenario  # noqa: E402
from asyncscope.tracelog import parse_trace, write_trace  # noqa: E402


def main() -> None:
    result = run_scenario("sequential_execute")
    trace_path = DATA / "sequential_execute.pdt"
    write_trace(result.session, trace_path)
    # Render from the re-parsed trace: the fixtures pin decode through render.
    report = build_report([parse_trace(trace_path.read_bytes())])
    (DATA / "sequential_execute.txt").write_bytes(render_text(report))
    (DATA / "sequential_execute.json").write_bytes(render_json(report))
    digest = subprocess.run([sys.executable, str(ROOT / "scripts/trace_digest.py")],
                            stdout=subprocess.PIPE, check=True).stdout
    (DATA / "trace_digest.txt").write_bytes(digest)
    print("\n".join(f"wrote {path}" for path in sorted(DATA.iterdir())))


if __name__ == "__main__":
    main()
