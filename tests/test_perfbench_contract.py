"""The names the benchmark in perfbench/ reads from the package still exist.

perfbench/ is only read here: its tracer's tables are executed from source
(no bytecode is written next to it), and its workload and worker modules
are parsed, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layertrace() -> dict:
    path = PERFBENCH / "layertrace.py"
    namespace: dict = {"__name__": "layertrace"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


LAYERTRACE = _layertrace()


@pytest.mark.parametrize("layer", LAYERTRACE["LAYERS"])
def test_every_layer_imports(layer):
    importlib.import_module(f"trigonal4.{layer}")


@pytest.mark.parametrize(
    "target",
    [target for _, targets in LAYERTRACE["CACHES"] for target in targets],
    ids=".".join,
)
def test_every_cache_target_is_an_lru_cache(target):
    module, name = target
    assert callable(getattr(importlib.import_module(f"trigonal4.{module}"), name).cache_info)


@pytest.mark.parametrize("name", sorted(LAYERTRACE["COUNTED"]))
def test_every_counted_name_resolves(name):
    """The tracer counts a function it finds in the module's namespace or in
    its class's own __dict__."""
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"trigonal4.{module_name}")
    for attr in path:
        assert attr in vars(owner), name
        owner = vars(owner)[attr]
    assert LAYERTRACE["_is_function"](owner), name


def test_every_arithmetic_dunder_is_defined_on_scalar():
    from trigonal4.scalars import Scalar

    missing = [op for op in LAYERTRACE["ARITHMETIC"] if op not in Scalar.__dict__]
    assert not missing, missing


def test_setup_probe_builds_the_parser():
    from trigonal4 import cli

    assert callable(cli.build_parser)
    cli.build_parser()


def _package_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "trigonal4":
            for alias in node.names:
                yield f"{path.name}:{node.lineno}", node.module, alias.name


@pytest.mark.parametrize(
    "where, module, name",
    [row for file in ("workloads.py", "worker.py") for row in _package_imports(PERFBENCH / file)],
)
def test_every_benchmark_import_resolves(where, module, name):
    imported = importlib.import_module(module)
    if not hasattr(imported, name):
        importlib.import_module(f"{module}.{name}")  # a submodule: from trigonal4 import cli
