#!/usr/bin/env python3
"""Replay the byte-identity corpus without pytest: each argv of corpus.json
runs once in process through ``cli.main``, and its stdout, stderr and exit
digests are compared with the recorded ones.  Prints each entry that
differs and a count, and exits 1 if any differs.

Run from the root of a checkout, under any interpreter the package
supports, in any environment:

    PYTHONPATH=src python3 tests/golden/replay.py
"""

from __future__ import annotations

import json
import sys

from record import CORPUS, argv_id, run


def main() -> int:
    entries = json.loads(CORPUS.read_text())
    differing = [entry for entry in entries if run(entry["argv"]) != entry]
    for entry in differing:
        print(f"differs: {argv_id(entry['argv'])}")
    print(f"{len(entries) - len(differing)} of {len(entries)} entries match on Python {sys.version.split()[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
