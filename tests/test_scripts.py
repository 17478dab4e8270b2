"""The example scripts run end to end on the package, and print the same
bytes for fixed arguments."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_residue_table():
    result = run_script("residue_table.py", "--u", "0,2,3", "--j", "1")
    assert result.returncode == 0, result.stderr
    assert "pairing table at u = (0,2,3)" in result.stdout
    assert "MISMATCH" not in result.stdout


# A library error prints "label: message" with its class's code, as the
# CLI does; argparse's own usage errors print usage (label None here).
@pytest.mark.parametrize(
    "args, label",
    [
        (("--j", "0"), None),
        (("--j", "4"), None),
        (("--u", "0,2"), None),
        (("--nodes", "0"), "invalid input: "),
        (("--nodes", "4097"), "invalid input: "),
        (("--u", "0,0,3"), "invalid parameters: "),
    ],
    ids=["j-0", "j-4", "two-u", "zero-nodes", "too-many-nodes", "invalid-u"],
)
def test_residue_table_rejects_bad_input(args, label):
    result = run_script("residue_table.py", *args)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    if label is not None:
        assert result.stderr.startswith(label), result.stderr


def test_residue_table_structural_error_exits_5():
    # Q'(u_3) past the float range: a structural error, not a usage error
    result = run_script("residue_table.py", "--u", "0,2," + "9" * 62, "--j", "3")
    assert result.returncode == 5, result.stderr
    assert result.stderr == "structural error: the float contour cannot represent this curve\n"
    assert "usage:" not in result.stderr
    assert not result.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("--count", "1", "--seed", "-1"),
        ("--count", "1", "--seed", "18446744073709551616"),
        ("--count", "-5"),
        ("--count", "0", "--cone-sweep", "-2"),
    ],
    ids=["negative", "past-64-bits", "negative-count", "negative-cone-sweep"],
)
def test_family_scan_rejects_bad_input(argv):
    result = run_script("family_scan.py", *argv)
    assert result.returncode == 2, result.stderr
    assert not result.stdout
    assert "Traceback" not in result.stderr
    if "--seed" in argv:  # a library error, reported with its label
        assert result.stderr.startswith("invalid input: "), result.stderr


def test_family_scan_accepts_zero_counts():
    result = run_script("family_scan.py", "--count", "0", "--cone-sweep", "0")
    assert result.returncode == 0, result.stderr
    assert "random directions (0 samples, seed 7):" in result.stdout


def test_family_scan_cone_sweep():
    result = run_script("family_scan.py", "--count", "20", "--seed", "11", "--cone-sweep", "3")
    assert result.returncode == 0, result.stderr
    sweep = result.stdout.split("cone sweep", 1)[1]
    assert "OnConicSupported: 3" in sweep


# SHA-256 of each script's stdout for one fixed command line.  The contour
# errors of residue_table.py are floats, pinned as this interpreter prints
# them, as tests/golden/record.py pins the numeric corpus entries.
PINNED = [
    (
        ("family_scan.py", "--count", "20", "--seed", "11", "--cone-sweep", "3"),
        "f3c000c9160acc121f68692ab8d2abd6a2889d69c2bb8887c5f4c95e0d107445",
    ),
    (
        ("residue_table.py", "--u", "0,2,3", "--j", "1"),
        "6301c7a8561f11ff6dddab50145a86e0763ae10a92a589546ef922c12222872e",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=["family_scan", "residue_table"])
def test_script_output_is_pinned(argv, digest):
    result = run_script(*argv)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
