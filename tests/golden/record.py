#!/usr/bin/env python3
"""Record the byte-identity corpus: for each argv below, the SHA-256 of the
stdout, the stderr and the exit code of one in-process ``cli.main`` run.

Run from the root of a checkout:

    PYTHONPATH=src python3 tests/golden/record.py

``tests/test_golden.py`` replays every entry of ``corpus.json`` and asserts
the same three digests.  Regenerating the corpus changes the output
contract; say why wherever the change is recorded.  The numeric
residue-check entries hash floats printed to 13 digits, and the argparse
entries hash help and usage text; both are pinned as this interpreter
prints them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from trigonal4 import cli

CORPUS = Path(__file__).resolve().parent / "corpus.json"

U_POINTS = ("0,2,3", "2,4,8", "-1,-1*w,1+1*w")

# Directions at u = (0,2,3): off the conic, the cone direction at t = 5, at
# t = inf, and at the branch x = 2.  At the other points the covector of
# (1,0,0) lies on the conic, so (1,0,0) is on-conic and (1,2,3) off it.
ANALYZE = [
    ["analyze", "--u=0,2,3", "--xi=1,2,3"],
    ["analyze", "--u=0,2,3", "--xi=-6,70,390"],
    ["analyze", "--u=0,2,3", "--xi=-1,7,26"],
    ["analyze", "--u=0,2,3", "--xi=0,-14,0"],
    ["analyze", "--u=0,2,3", "--xi=1,0,0"],
] + [["analyze", f"--u={u}", f"--xi={xi}"] for u in U_POINTS[1:] for xi in ("1,2,3", "1,0,0")]

RESIDUE = [
    ["residue-check", f"--u={u}", f"--j={j}"] + numeric
    for u in U_POINTS
    for j in (1, 2, 3)
    for numeric in ([], ["--numeric", "--quad-nodes=128"])
]

SERIES_ORDER = [
    command + [f"--series-order={order}"]
    for command in (["analyze", "--u=0,2,3", "--xi=1,2,3"], ["residue-check", "--u=0,2,3", "--j=1"])
    for order in (1, 64, 0, 65)
]

SCAN = [
    ["scan", "--random=100", "--seed=7"],
    ["scan", "--random=100", "--seed=7", "--format=csv"],
    ["scan", "--random=3"],  # --seed defaults to 0
    ["scan", "--grid=cone:20", "--u=0,2,3"],
]

IDEAL = [["ideal", f"--u={u}"] for u in U_POINTS] + [
    ["schiffer", "--u=0,2,3", "--point=0,1,0,0"],
    ["schiffer", "--u=0,2,3", "--point=1,0,0,0"],
]

# Tied and untied t1/t2, inf and 0 on either side, a zeta t1, and untied
# pairs whose fibers coincide, over the branch x = 0 and 2 at u = (0,2,3)
# and x = 2 and 4 at u = (2,4,8).
D0_PAIRS = (
    ("1/4",), ("1/4", "7"), ("inf",), ("0",), ("1+1*w",), ("1+1*w", "3"),
    ("inf", "inf"), ("0", "5"), ("2", "inf"), ("1", "3"), ("-1", "1"), ("1/3", "5"),
)
D0 = [
    ["d0", f"--u={u}", f"--t1={pair[0]}"] + ([f"--t2={pair[1]}"] if len(pair) > 1 else [])
    for u in U_POINTS
    for pair in D0_PAIRS
]

QZ24 = [["qz24"], ["qz24", "--a=2"], ["qz24", "--a=-1/3+2*w"]]

FAILING = [
    ["analyze", "--u=1,2,3", "--xi=1,0,0"],
    ["analyze", "--u=2,2,3", "--xi=1,0,0"],
    ["analyze", "--u=0,2,3", "--xi=not-a-literal,0,0"],
    ["analyze", "--u=1/0,2,3", "--xi=1,0,0"],
    ["analyze", "--u=0,2,3", "--xi=1,0,2/0*w"],
    ["analyze", "--u=0,2,3", "--xi=--"],
    ["residue-check", "--u=0,2,3", "--j=0"],
    ["residue-check", "--u=0,2,3", "--j=4"],
    ["residue-check", "--u=0,2,3", "--j=1", "--numeric", "--quad-nodes=0"],
    ["residue-check", "--u=0,2,3", "--j=1", "--numeric", "--quad-nodes=4097"],
    ["residue-check", "--u=0,2,3", "--j=1", "--numeric", "--numeric-tolerance=nan"],
    ["scan"],
    ["scan", "--random=-1"],
    ["scan", "--grid=cone:5"],
    ["scan", "--grid=cone:x", "--u=0,2,3"],
    ["scan", "--grid=cone:5", "--u=0,2,3", "--seed=1"],
    ["scan", "--random=5", "--u=0,2,3"],
    ["schiffer", "--u=0,2,3", "--point=0,0,0,0"],
    ["d0", "--u=0,2,3", "--t1=1/4", "--t2=x"],
    ["qz24", "--a=1"],
    ["ideal", "--u=--"],
    ["analyze", "--u=0,2,3", "--xi=0,0,0"],
    ["residue-check", "--u=0,2,3", "--j=1", "--numeric", "--quad-nodes=1"],
    ["residue-check", "--u=0,2,3", "--j=2", "--numeric", "--quad-nodes=64", "--numeric-tolerance=1e-30"],
    # Q'(u_3) ~ u_3**5 past the float range, and u_3 itself past it
    ["residue-check", "--numeric", "--u=0,2," + "9" * 62, "--j=3"],
    ["residue-check", "--numeric", "--u=0,2," + "9" * 4000, "--j=3"],
]

# Literals written other than canonically (unreduced, signed or padded
# zeros, a zero zeta part, surrounding blanks) print canonically; a zero
# denominator in either part, and a numerator past the int() digit limit,
# are refused.  The digit limit is met before the zero denominator behind it.
LONG = "9" * 4301
LITERALS = [
    ["analyze", "--u=4/6,-0,007/21", "--xi=0*w,2/4+0/3*w,6/4+-9/6*w"],
    ["analyze", "--u= 3 ,2/4+0/3*w,6/4+-9/6*w", "--xi=-0+1*w, 2 ,-007/021"],
    ["d0", "--u=0/5,004/2,6/2", "--t1=4/6"],
    ["d0", "--u=-0,2,3", "--t1=2/4+0/3*w", "--t2= 6/4+-9/6*w "],
    ["d0", "--u=0,2,3", "--t1= 3 ", "--t2=0*w"],
    ["qz24", "--a=-2/6+0*w"],
    ["analyze", "--u=0,2,1/0*w", "--xi=1,0,0"],
    ["analyze", "--u=0,2,1/0+1*w", "--xi=1,0,0"],
    ["analyze", "--u=0,2,1+1/0*w", "--xi=1,0,0"],
    ["d0", "--u=0,2,3", "--t1=3/0"],
    ["analyze", f"--u={LONG}/0,2,3", "--xi=1,0,0"],
    ["analyze", f"--u=0,2,1+{LONG}/0*w", "--xi=1,0,0"],
    ["analyze", f"--u=0,2,1/0+{LONG}*w", "--xi=1,0,0"],
    ["d0", "--u=0,2,3", f"--t1=-{LONG}/0"],
]

# Separate option values, as scan-offconic sends them and README users type
SEPARATE = [["scan", "--random", "100", "--seed", "7"], ["analyze", "--u", "0,2,3", "--xi", "1,0,0"]]

HELP = [["-h"]] + [[command, "-h"] for command in cli.COMMANDS]

# Inputs at the edges of their ranges: two --u literals and a repeated
# parameter for residue-check, a negative cone count and seeds just outside
# 0..2**64-1, each refused with its label, and a zero cone count (no rows)
EDGES = [
    ["residue-check", "--u=0,2", "--j=1"],
    ["residue-check", "--u=0,0,3", "--j=1"],
    ["scan", "--grid=cone:-2", "--u=0,2,3"],
    ["scan", "--grid=cone:0", "--u=0,2,3"],
    ["scan", "--random=1", "--seed=-1"],
    ["scan", "--random=1", f"--seed={2 ** 64}"],
]

ARGVS = ANALYZE + RESIDUE + SERIES_ORDER + SCAN + IDEAL + D0 + QZ24 + FAILING + LITERALS + SEPARATE + HELP + EDGES


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def argv_id(argv: list) -> str:
    """An entry's test id: its argv, each argument past 80 characters cut
    to its first 24 and its length."""
    return " ".join(a if len(a) <= 80 else f"{a[:24]}...[{len(a)} chars]" for a in argv)


def run(argv: list) -> dict:
    """The digests of one in-process run of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv), out)
    return {
        "argv": list(argv),
        "stdout": _sha256(out.getvalue()),
        "stderr": _sha256(err.getvalue()),
        "exit": _sha256(str(code)),
    }


def main() -> None:
    entries = [run(argv) for argv in ARGVS]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")


if __name__ == "__main__":
    main()
