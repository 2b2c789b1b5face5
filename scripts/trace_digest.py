#!/usr/bin/env python3
"""Print a sha256 of every registered scenario's encoded trace.

Each line is ``<sha256>  <scenario>``; the last line is the digest of all
the traces in name order. Two commits whose lines agree record
byte-identical virtual-clock traces.

Captured contexts include this script's own frames, so compare only
digests printed by the same copy of this file: to check a change, copy
it into a checkout of the parent and run both from their repository
roots with ``PYTHONPATH=src``.
"""

import hashlib

from asyncscope.scenarios import SCENARIOS, run_scenario
from asyncscope.tracelog import encode_session


def main() -> None:
    combined = hashlib.sha256()
    for name in sorted(SCENARIOS):
        data = encode_session(run_scenario(name).session)
        combined.update(data)
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    print(f"{combined.hexdigest()}  (all)")


if __name__ == "__main__":
    main()
