"""Smoke tests: the example scripts run end to end on the package."""

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


@pytest.mark.parametrize(
    "args",
    [("--j", "0"), ("--j", "4"), ("--u", "0,2"), ("--nodes", "0"), ("--u", "0,0,3")],
    ids=["j-0", "j-4", "two-u", "zero-nodes", "invalid-u"],
)
def test_residue_table_rejects_bad_input(args):
    result = run_script("residue_table.py", *args)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr


def test_family_scan_cone_sweep():
    result = run_script("family_scan.py", "--count", "20", "--seed", "11", "--cone-sweep", "3")
    assert result.returncode == 0, result.stderr
    sweep = result.stdout.split("cone sweep", 1)[1]
    assert "OnConicSupported: 3" in sweep
