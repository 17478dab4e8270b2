"""The package has zero runtime dependencies: every import in src/trigonal4
is relative or names a standard-library module.  The package also carries
no unused imports, no definition that nothing references, and names every
definition that only the tests reach."""

import ast
import re
import sys
from pathlib import Path

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
    """Names that the given folders reference (as a Name, an Attribute or an
    import alias), plus the entry points in pyproject.toml."""
    root = SOURCE.parent.parent
    names = set()
    for folder in folders:
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
    names.update(re.findall(r'=\s*"[\w.]+:(\w+)"', (root / "pyproject.toml").read_text()))
    return names


def _unreferenced_definitions(referenced: set) -> list:
    """(module, name) of every function, class and method defined in the
    package that ``referenced`` lacks; dunders are called by the language,
    so they are exempt."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in referenced:
                    found.append((path.stem, name))
    return found


def test_no_dead_definitions():
    """Every function, class and method defined in the package is referenced
    somewhere."""
    offenders = _unreferenced_definitions(_referenced_names())
    assert not offenders, offenders


# Definitions that no production path reaches: nothing in src/, scripts/ or
# the entry points references them.  Each
# is either an oracle the tests cross-check a production path against, or
# public API kept for library users.
TEST_ONLY = {
    "canonical_ideal._evaluation_kernel": "oracle",
    "canonical_ideal.noether_rank": "public API",
    "canonical_ideal.veronese": "public API",
    "curve.canonical_map": "public API",
    "curve.common_zeros_by_divisors": "oracle",
    "curve.divisor_of_function": "oracle",
    "curve.kdiff_series": "oracle",
    "deformation.as_matrix": "oracle",
    "deformation.kernel_W": "public API",
    "deformation.moment_matrix": "oracle",
    "deformation.ks_rank": "public API",
    "deformation.product_differential": "public API",
    "deformation.support_test": "oracle",
    "deformation.xi_functional": "public API",
    "linalg.same_subspace": "public API",
    "numeric.numeric_residue_pairing": "oracle",
    "polynomials.from_roots": "oracle",
    "rulings.ruling_line": "public API",
}


def test_test_only_definitions_are_named():
    """The definitions only tests reach are exactly those TEST_ONLY names,
    each tagged as an oracle or as public API."""
    production = _referenced_names(("src", "scripts"))
    found = {f"{module}.{name}" for module, name in _unreferenced_definitions(production)}
    assert found == set(TEST_ONLY), (sorted(found - set(TEST_ONLY)), sorted(set(TEST_ONLY) - found))
    assert set(TEST_ONLY.values()) <= {"oracle", "public API"}
