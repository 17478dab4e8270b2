#!/usr/bin/env python3
"""Which definitions in src/trigonal4 the program's traffic runs.

The traffic is what users and the benchmark send:

- every argv of tests/golden/corpus.json through ``cli.main``;
- round 0 of each BENCHMARK.json workload at seed 1, generated by
  perfbench/workloads.py (executed from source, not imported) and run
  through ``cli.main``;
- ``EXERCISE``: calls of the names perfbench/layertrace.py pins
  (``COUNTED`` and the ``CACHES`` targets) that no command reaches.

``replay()`` runs it under ``sys.setprofile`` in a fresh interpreter
without site (-S) that writes no bytecode; the profiler is installed
before the first trigonal4 import, so import-time code counts.  As each
corpus entry runs, the replay also records whether it built the parser,
whether argparse is loaded and which trigonal4 modules are, for
tests/test_golden.py.
``unreached()`` lists every ``def`` whose code never ran, nested and
decorated ones included, keyed by the code object's first line (the
first decorator's line for a decorated def).  Only the names in
``EXEMPT`` are let off.

Run from the root of a checkout to print the unreached defs with their
line counts (exit status 1 if there are any):

    python3 tests/reachability.py
"""

from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SOURCE = ROOT / "src" / "trigonal4"

# A record's equality and hash go together even where nothing compares it,
# cli.entry is the console script (the replay calls main), and a __repr__
# is for a reader.
EXEMPT = frozenset({"__eq__", "__hash__", "__repr__", "cli.entry"})


def _divisor_of():
    """The basis w0..w3 and a form with b0 != 0 at u = (0,2,3), and forms
    that build the other entries a divisor_of can return: a branch point
    and the fiber over x = 5 ((x**2 - 5x) dx/y**2), a fiber locus
    ((x**2 + 1) dx/y**2), and at u = (2,4,8), where Q(0) = 64 and
    Q'(0) = -56, the double point (0, 4) of (y + 7x/6 - 4) dx/y**2."""
    from trigonal4.curve import Differential, divisor_of, validate_params
    from trigonal4.scalars import ratio_scalar

    params = validate_params(0, 2, 3)
    for i in range(4):
        divisor_of(params, Differential(int(i == 0), tuple(int(i == j) for j in (1, 2, 3))))
    for b0, b in ((1, (1, 0, 0)), (0, (0, -5, 1)), (0, (1, 0, 1))):
        divisor_of(params, Differential(b0, b))
    divisor_of(validate_params(2, 4, 8), Differential(1, (-4, ratio_scalar(7, 6, 0, 1), 0)))


def _branch_inversion():
    from trigonal4.curve import branch_inversion, validate_params

    params = validate_params(0, 2, 3)
    branch_inversion(params, params.u[1], 7)


def _kernel_basis():
    from trigonal4.linalg import Matrix

    Matrix(((1, 2, 3), (2, 4, 6))).kernel_basis()


def _zeta():
    from trigonal4.scalars import Scalar

    return Scalar.zeta()


# Each entry calls a name perfbench pins that no command or benchmark
# round reaches; the guard checks that every key is still pinned.
EXERCISE = {
    "curve.divisor_of": _divisor_of,
    "curve.branch_inversion": _branch_inversion,
    "linalg.Matrix.kernel_basis": _kernel_basis,
    "scalars.Scalar.__rsub__": lambda: 2 - _zeta(),
    "scalars.Scalar.__rtruediv__": lambda: 2 / _zeta(),
}


def _benchmark_rounds() -> list:
    """Round 0 of each BENCHMARK.json workload at seed 1, as
    workloads.generate builds it."""
    path = ROOT / "perfbench" / "workloads.py"
    namespace: dict = {"__name__": "workloads"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return [namespace["ROUND_BUILDERS"][name][0](random.Random(f"{name}/1/0")) for name in names]


def _run_traffic(records: list) -> None:
    """Runs the traffic, appending one record per corpus entry, in corpus
    order: whether it called build_parser, whether it loaded argparse, and
    the package modules loaded once it has run.  Before each entry the
    parser cache is cleared and argparse is dropped from sys.modules, so
    each entry that needs either loads it again."""
    from golden.record import CORPUS, cli, run

    for entry in json.loads(CORPUS.read_text()):
        cli.build_parser.cache_clear()
        sys.modules.pop("argparse", None)
        run(entry["argv"])
        modules = sorted(m for m in sys.modules if m.partition(".")[0] == "trigonal4")
        records.append((cli.build_parser.cache_info().misses == 1, "argparse" in sys.modules, modules))
    for requests in _benchmark_rounds():
        for request in requests:
            run(request["argv"])
    for call in EXERCISE.values():
        call()


def profile_calls(run, directory: Path) -> set:
    """(file name, first line) of every code object defined in a module of
    ``directory`` that is called while ``run()`` runs under sys.setprofile."""
    called = set()
    add = called.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    directory = os.path.realpath(directory)
    keys = set()
    for code in called:
        path = os.path.realpath(code.co_filename)
        if os.path.dirname(path) == directory:
            keys.add((os.path.basename(path), code.co_firstlineno))
    return keys


# What a replay saw: the profile_calls keys of the package, and the
# _run_traffic record of each corpus entry.
Traffic = namedtuple("Traffic", "called records")


def replay() -> Traffic:
    """The traffic replayed in this process, which must not have imported
    trigonal4 yet."""
    sys.path[:0] = [str(SOURCE.parent), str(TESTS)]
    records: list = []
    return Traffic(profile_calls(lambda: _run_traffic(records), SOURCE), records)


def replay_in_subprocess() -> Traffic:
    """replay() in a fresh ``python -S`` that writes no bytecode."""
    code = (
        "import sys; sys.dont_write_bytecode = True; "
        f"sys.path.insert(0, {str(TESTS)!r}); "
        "import json, reachability; called, records = reachability.replay(); "
        "print(json.dumps([sorted(called), records]))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, cwd=str(ROOT)
    )
    called, records = json.loads(result.stdout)
    records = [(built, loaded, set(modules)) for built, loaded, modules in records]
    return Traffic({tuple(key) for key in called}, records)


def _defs(tree: ast.Module):
    """(qualified name, first line, last line) of every def in the tree; the
    first line is the first decorator's, as in the code object."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield f"{prefix}{child.name}", first, child.end_lineno
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def unreached(called: set, files=None) -> list:
    """(module, qualified name, line count) of every def in ``files`` (the
    package's modules by default) whose (file name, first line) is not in
    ``called``, except the EXEMPT names: a bare name exempts every def so
    named, ``module.name`` the one def."""
    found = []
    for path in files or sorted(SOURCE.glob("*.py")):
        path = Path(path)
        for qualname, first, last in _defs(ast.parse(path.read_text(), filename=str(path))):
            name = qualname.rpartition(".")[2]
            if (path.name, first) in called or name in EXEMPT or f"{path.stem}.{qualname}" in EXEMPT:
                continue
            found.append((path.stem, qualname, last - first + 1))
    return found


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    missing = unreached(replay_in_subprocess().called)
    for module, qualname, lines in missing:
        print(f"{module}.{qualname}: {lines} lines")
    print(f"{len(missing)} unreached defs, {sum(lines for *_, lines in missing)} lines")
    sys.exit(1 if missing else 0)
