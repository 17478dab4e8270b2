"""The package has zero runtime dependencies: every import in src/trigonal4
is relative or names a standard-library module.  The package also carries
no unused imports, no definition that nothing references, and names every
definition that only the tests and the benchmark reach."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_perfbench_contract import LAYERTRACE, PERFBENCH, _package_imports

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


@pytest.mark.parametrize(
    "module", ["trigonal4.linalg", "fractions", "decimal", "numbers", "dataclasses", "inspect", "typing"]
)
def test_cli_import_leaves_linalg_unloaded(module):
    """A fresh interpreter that imports the CLI never loads linalg, since no
    command builds a Matrix, nor fractions and the decimal and numbers
    modules it imports, since a Scalar is its integer triple, nor
    dataclasses, the inspect module it imports, or typing, since the records
    are plain classes and annotations stay unevaluated strings.  The
    interpreter runs without site (-S), so that a .pth hook of the
    environment that imports typing cannot decide the answer."""
    code = f"import sys, trigonal4.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


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


def _referenced_names(folders=("src", "tests", "scripts")) -> set:
    """Names that the given folders load (as a Name or an Attribute read, or
    an import alias), plus the entry points in pyproject.toml; an assignment
    to a name does not reference it."""
    root = SOURCE.parent.parent
    names = set()
    for folder in folders:
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


# Definitions that no command or script reaches: nothing in src/, scripts/
# or the entry points references them.  Each is either named by the
# benchmark in perfbench/ or public API that the README's Library API
# section documents.  The oracles the tests cross-check against live in
# tests/oracles/.
TEST_ONLY = {
    "curve.branch_inversion": "benchmark",
    "curve.divisor_of": "benchmark",
    "linalg.identity": "public API",
    "linalg.same_subspace": "public API",
    "numeric.numeric_residue_pairing": "benchmark",
}


def test_test_only_definitions_are_named():
    """The definitions only tests reach are exactly those TEST_ONLY names,
    each tagged as named by the benchmark or as public API."""
    production = _referenced_names(("src", "scripts"))
    found = {f"{module}.{name}" for module, name in _unreferenced_definitions(production)}
    assert found == set(TEST_ONLY), (sorted(found - set(TEST_ONLY)), sorted(set(TEST_ONLY) - found))
    assert set(TEST_ONLY.values()) <= {"benchmark", "public API"}


def test_benchmark_definitions_are_named_by_perfbench():
    """A COUNTED entry, a CACHES target, or an import of perfbench's
    workloads.py or worker.py; the tracer's tables are executed, not
    imported (test_perfbench_contract)."""
    named = {f"{name.split('.')[0]}.{name.split('.')[-1]}" for name in LAYERTRACE["COUNTED"]}
    named |= {f"{module}.{name}" for _, targets in LAYERTRACE["CACHES"] for module, name in targets}
    for file in ("workloads.py", "worker.py"):
        named |= {f"{module.split('.')[-1]}.{name}" for _, module, name in _package_imports(PERFBENCH / file)}
    benchmark = {name for name, tag in TEST_ONLY.items() if tag == "benchmark"}
    assert benchmark <= named, sorted(benchmark - named)


def test_public_api_definitions_are_documented():
    readme = (SOURCE.parent.parent / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    missing = [
        name for name, tag in TEST_ONLY.items()
        if tag == "public API" and not re.search(rf"\b{name.split('.')[1]}\b", section)
    ]
    assert not missing, missing
