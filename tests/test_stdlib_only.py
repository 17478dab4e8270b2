"""The package has zero runtime dependencies: every import in src/trigonal4
is relative or names a standard-library module.  The package also carries
no unused imports, no definition that nothing references, and no def that
the program's traffic never runs (tests/reachability.py)."""

import ast
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import reachability
from golden.record import CORPUS
from test_perfbench_contract import LAYERTRACE

SOURCE = Path(__file__).resolve().parent.parent / "src" / "trigonal4"


def test_imports_are_stdlib_or_relative():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    offenders = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, offenders


def test_only_build_parser_imports_argparse():
    """argparse loads when cli.build_parser runs and at no other time, so a
    request that never builds the parser never loads it."""

    def argparse_imports(tree):
        return [
            n
            for n in ast.walk(tree)
            if isinstance(n, ast.Import)
            and any(a.name.partition(".")[0] == "argparse" for a in n.names)
            or isinstance(n, ast.ImportFrom)
            and n.level == 0
            and n.module.partition(".")[0] == "argparse"
        ]

    every = [node for path in sorted(SOURCE.glob("*.py")) for node in argparse_imports(ast.parse(path.read_text()))]
    cli = ast.parse((SOURCE / "cli.py").read_text())
    build_parser = next(n for n in cli.body if isinstance(n, ast.FunctionDef) and n.name == "build_parser")
    assert len(every) == len(argparse_imports(build_parser)) == 1


# The package modules each corpus command loads besides trigonal4, cli and
# errors: a command imports what it runs when main dispatches to it, so
# building the parser alone loads no library module, and no command loads
# linalg, polynomials or series.
_CORE = {"curve", "report", "scalars"}
COMMAND_MODULES = [
    ([], set()),
    (["analyze", "--u=0,2,3", "--xi=1,2,3"], _CORE | {"deformation"}),
    (["analyze", "--u=0,2,3", "--xi=1,0,0"], _CORE | {"deformation"}),
    (["residue-check", "--u=0,2,3", "--j=1"], _CORE | {"deformation"}),
    (["residue-check", "--u=0,2,3", "--j=1", "--numeric", "--quad-nodes=128"], _CORE | {"deformation", "numeric"}),
    (["scan", "--random=100", "--seed=7"], _CORE | {"deformation", "prng"}),
    (["scan", "--grid=cone:20", "--u=0,2,3"], _CORE | {"deformation"}),
    (["ideal", "--u=0,2,3"], _CORE | {"canonical_ideal"}),
    (["schiffer", "--u=0,2,3", "--point=0,1,0,0"], _CORE | {"canonical_ideal"}),
    (["d0", "--u=0,2,3", "--t1=1/4"], _CORE | {"rulings"}),
    (["qz24", "--a=2"], {"qz24", "report", "scalars"}),
]

# Standard-library modules no command needs: fractions, with the decimal and
# numbers modules it imports, since a Scalar is its integer triple;
# dataclasses, with the inspect module it imports, and typing, since the
# records are plain classes and annotations stay unevaluated strings; json,
# re and enum, since report quotes with _json's C escaper and nothing a
# command prints needs json's encoder; argparse, which only build_parser
# imports.
UNLOADED = ("fractions", "decimal", "numbers", "dataclasses", "inspect", "typing", "json", "re", "enum", "argparse")


@pytest.fixture(scope="module")
def probe():
    """The modules loaded in a fresh interpreter without site (-S), so that
    a .pth hook of the environment cannot decide the answer, after
    importing the CLI and after then running one argv through main
    without building the parser (the empty argv builds the parser
    instead).  Each argv starts one interpreter, whichever test asks
    first."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    cache = {}

    def run(argv):
        key = tuple(argv)
        if key not in cache:
            step = f"assert cli.main({argv!r}, io.StringIO()) == 0\n" if argv else "cli.build_parser()\n"
            code = (
                "import io, sys, trigonal4.cli as cli\n"
                "print(' '.join(sys.modules))\n"
                f"{step}"
                "print(' '.join(sys.modules))"
            )
            result = subprocess.run(
                [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
            )
            at_import, after_run = result.stdout.split("\n")[:2]
            cache[key] = set(at_import.split()), set(after_run.split())
        return cache[key]

    return run


@pytest.mark.parametrize("module", ("trigonal4.linalg",) + UNLOADED)
def test_cli_import_leaves_linalg_unloaded(probe, module):
    """Importing the CLI loads neither linalg, since no command builds a
    Matrix, nor any of UNLOADED."""
    assert [argv for argv, _ in COMMAND_MODULES if module in probe(argv)[0]] == []


@pytest.mark.parametrize(
    "argv, modules", COMMAND_MODULES, ids=[" ".join(argv) or "parser" for argv, _ in COMMAND_MODULES]
)
def test_command_loads_only_the_modules_it_runs(probe, argv, modules):
    """A corpus command loads exactly the trigonal4 modules it runs, and
    building the parser loads no library module."""
    assert not argv or argv in [entry["argv"] for entry in json.loads(CORPUS.read_text())]
    expected = {"trigonal4", "trigonal4.cli", "trigonal4.errors"} | {f"trigonal4.{m}" for m in modules}
    assert sorted(m for m in probe(argv)[1] if m.partition(".")[0] == "trigonal4") == sorted(expected)


_COMMANDS = [argv for argv, _ in COMMAND_MODULES if argv]


@pytest.mark.parametrize("argv", _COMMANDS, ids=[" ".join(argv) for argv in _COMMANDS])
def test_command_leaves_json_re_and_enum_unloaded(probe, argv):
    """A corpus command that succeeds loads none of UNLOADED, json, re and
    enum among them: report quotes with _json's C escaper, and nothing a
    command prints needs json's encoder."""
    assert [m for m in UNLOADED if m in probe(argv)[1]] == []


def test_no_unused_imports():
    """Every name a module imports is used in it."""
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        offenders.append(f"{path.name}:{node.lineno} {bound}")
    assert not offenders, offenders


def _referenced_names() -> set:
    """Names that src/ and tests/ load (as a Name or an Attribute read, or
    an import alias), plus the entry points in pyproject.toml; an
    assignment to a name does not reference it."""
    root = SOURCE.parent.parent
    names = set()
    for folder in ("src", "tests"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
    names.update(re.findall(r'=\s*"[\w.]+:(\w+)"', (root / "pyproject.toml").read_text()))
    return names


def _defined_names(tree: ast.Module):
    """Every function, class and method a module defines, and every name its
    top-level assignments bind."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def _unreferenced_definitions(referenced: set) -> list:
    """(module, name) of every definition in the package that ``referenced``
    lacks; dunders are read by the language, so they are exempt."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for name in _defined_names(ast.parse(path.read_text(), filename=str(path))):
            if not (name.startswith("__") and name.endswith("__")) and name not in referenced:
                found.append((path.stem, name))
    return found


def test_no_dead_definitions():
    """Every function, class, method and module-level constant defined in
    the package is read somewhere."""
    offenders = _unreferenced_definitions(_referenced_names())
    assert not offenders, offenders


def test_every_def_runs_for_the_traffic(traffic):
    """Every def in the package runs for a corpus command, a benchmark
    round or a perfbench pin (tests/reachability.py); only the EXEMPT names
    may stay unrun.  Run tests/reachability.py for the list with line
    counts."""
    assert reachability.unreached(traffic.called) == []


def _code_key(name: str) -> tuple:
    """(file name, first line) of the function a perfbench name resolves to,
    the wrapped one for an lru_cache."""
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"trigonal4.{module_name}")
    for attr in path:
        owner = vars(owner)[attr]
    code = getattr(owner, "__wrapped__", owner).__code__
    return Path(code.co_filename).name, code.co_firstlineno


def test_the_exercise_runs_what_perfbench_pins(traffic):
    """Each EXERCISE entry calls a name that perfbench/layertrace.py counts
    (COUNTED) or reads the cache of (CACHES), and with the traffic it runs
    every one of those names.  So when the benchmark stops naming a
    function, its entry here fails until it goes, and the guard above then
    finds what only the exercise ran."""
    pinned = set(LAYERTRACE["COUNTED"]) | {
        f"{module}.{name}" for _, targets in LAYERTRACE["CACHES"] for module, name in targets
    }
    assert set(reachability.EXERCISE) <= pinned, sorted(set(reachability.EXERCISE) - pinned)
    missing = sorted(name for name in pinned if _code_key(name) not in traffic.called)
    assert not missing, missing


_SYNTHETIC = """\
import functools


def called():
    def nested_uncalled():
        return 1

    def nested_called():
        return 2

    return nested_called()


@functools.lru_cache(maxsize=None)
def decorated_uncalled():
    return 3


@functools.lru_cache(maxsize=None)
def decorated_called():
    return 4


def at_import():
    return decorated_called()


VALUE = at_import()


class Record:
    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0

    def __repr__(self):
        return "Record"

    def __str__(self):
        return "record"


def entry():
    return called()
"""


def test_the_guard_lists_exactly_the_uncalled_defs(tmp_path):
    """On a synthetic module: a called def (and the def it calls), an
    uncalled nested def, an uncalled and a called decorated def, and a def
    that runs only at import.  The exemptions go by name: __eq__, __hash__
    and __repr__ anywhere, entry only in cli."""
    module = tmp_path / "synthetic.py"
    module.write_text(_SYNTHETIC)
    cli = tmp_path / "cli.py"
    cli.write_text("def entry():\n    return 0\n\n\ndef other():\n    return 1\n")

    def run():
        namespace = runpy.run_path(str(module))
        namespace["called"]()
        runpy.run_path(str(cli))

    called = reachability.profile_calls(run, tmp_path)
    assert reachability.unreached(called, [module, cli]) == [
        ("synthetic", "called.nested_uncalled", 2),
        ("synthetic", "decorated_uncalled", 3),
        ("synthetic", "Record.__str__", 2),
        ("synthetic", "entry", 2),
        ("cli", "other", 2),
    ]


SCALAR_ARITHMETIC = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "inverse")


def test_scalar_arithmetic_has_one_path():
    """Scalar's arithmetic methods read no triple field themselves: each
    turns its operands into triples and composes the kernel (_add3, _sub3,
    _mul3, _inv3), so Q(w) arithmetic has one implementation."""
    tree = ast.parse((SOURCE / "scalars.py").read_text())
    scalar = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Scalar")
    methods = {node.name: node for node in scalar.body if isinstance(node, ast.FunctionDef)}
    assert set(SCALAR_ARITHMETIC) <= set(methods)
    offenders = [
        f"{name}:{node.lineno} {node.attr}"
        for name in SCALAR_ARITHMETIC
        for node in ast.walk(methods[name])
        if isinstance(node, ast.Attribute) and node.attr in ("_a", "_b", "_d")
    ]
    assert not offenders, offenders
