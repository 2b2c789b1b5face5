#!/usr/bin/env python3
"""Print a sha256 of every registered scenario's encoded trace and of the
text and JSON reports analysed from it.

For each scenario, in name order, three lines: ``<sha256>  <scenario>``
for the trace, then ``<sha256>  <scenario> text`` and ``<sha256>
<scenario> json`` for ``render_text`` and ``render_json`` of the report
built from the re-parsed trace. The last line is the digest of all the
traces in name order. Two commits whose lines agree record byte-identical
virtual-clock traces and render byte-identical reports from them. It also
checks that each ``render_json`` is ``json.dumps(report_to_dict(report),
indent=2, sort_keys=True)`` and a newline, and exits non-zero naming the
scenarios where it is not.

Captured contexts include this script's own frames, so compare only
digests printed by the same copy of this file: to check a change, copy
it into a checkout of the parent and run both copies. Run from anywhere;
it imports asyncscope from the ``src`` of the checkout it sits in::

    python3 scripts/trace_digest.py
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from asyncscope.report import (  # noqa: E402
    build_report, render_json, render_text, report_to_dict)
from asyncscope.scenarios import SCENARIOS, run_scenario  # noqa: E402
from asyncscope.tracelog import encode_session, parse_trace  # noqa: E402


def main() -> int:
    combined = hashlib.sha256()
    mismatched = []
    for name in sorted(SCENARIOS):
        data = encode_session(run_scenario(name).session)
        combined.update(data)
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
        report = build_report([parse_trace(data)])
        rendered = {"text": render_text(report), "json": render_json(report)}
        for form, text in rendered.items():
            print(f"{hashlib.sha256(text).hexdigest()}  {name} {form}")
        dumped = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
        if rendered["json"] != dumped.encode():
            mismatched.append(name)
    print(f"{combined.hexdigest()}  (all)")
    if mismatched:
        print(f"render_json differs from json.dumps for: {', '.join(mismatched)}",
              file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
