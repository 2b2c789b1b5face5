#!/usr/bin/env python3
"""Print a sha256 of every registered scenario's encoded trace and of the
text and JSON reports analysed from it.

For each scenario, in name order, three lines: ``<sha256>  <scenario>``
for the trace, then ``<sha256>  <scenario> text`` and ``<sha256>
<scenario> json`` for ``render_text`` and ``render_json`` of the report
built from the re-parsed trace. The last line is the digest of all the
traces in name order. Two commits whose lines agree record byte-identical
virtual-clock traces and render byte-identical reports from them.

Captured contexts include this script's own frames, so compare only
digests printed by the same copy of this file: to check a change, copy
it into a checkout of the parent and run both copies. Run from anywhere;
it imports asyncscope from the ``src`` of the checkout it sits in::

    python3 scripts/trace_digest.py
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from asyncscope.report import build_report, render_json, render_text  # noqa: E402
from asyncscope.scenarios import SCENARIOS, run_scenario  # noqa: E402
from asyncscope.tracelog import encode_session, parse_trace  # noqa: E402


def main() -> None:
    combined = hashlib.sha256()
    for name in sorted(SCENARIOS):
        data = encode_session(run_scenario(name).session)
        combined.update(data)
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
        report = build_report([parse_trace(data)])
        for form, render in (("text", render_text), ("json", render_json)):
            print(f"{hashlib.sha256(render(report)).hexdigest()}  {name} {form}")
    print(f"{combined.hexdigest()}  (all)")


if __name__ == "__main__":
    main()
