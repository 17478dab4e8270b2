"""Byte identity: every command line in tests/golden/corpus.json still prints
the same stdout and stderr and exits with the same code.  The corpus is
regenerated by tests/golden/record.py, which also holds the replay;
tests/golden/replay.py replays it without pytest."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trigonal4 import cli

from golden.record import CORPUS, argv_id, run

ENTRIES = json.loads(CORPUS.read_text())
REPLAY = CORPUS.parent / "replay.py"


@pytest.mark.parametrize("entry", ENTRIES, ids=[argv_id(e["argv"]) for e in ENTRIES])
def test_corpus_entry_is_byte_identical(entry):
    assert run(entry["argv"]) == entry


def test_corpus_holds_in_a_narrow_terminal_and_another_hash_seed():
    """A fresh interpreter with COLUMNS=40 and another PYTHONHASHSEED prints
    the same bytes: help and usage text wrap at a fixed width."""
    source = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(source), COLUMNS="40", PYTHONHASHSEED="12345")
    result = subprocess.run([sys.executable, str(REPLAY)], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.fixture(scope="module")
def modules_loaded():
    """Replays every corpus entry in one fresh interpreter without site (-S)
    and lists, for each entry in corpus order, the package modules loaded
    once it has run."""
    tests = Path(__file__).resolve().parent
    code = (
        "import json, sys\n"
        "from golden.record import CORPUS, run\n"
        "for entry in json.loads(CORPUS.read_text()):\n"
        "    run(entry['argv'])\n"
        "    print(' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'trigonal4')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return [set(line.split()) for line in result.stdout.splitlines()]


@pytest.mark.parametrize("index", range(len(ENTRIES)), ids=[argv_id(e["argv"]) for e in ENTRIES])
def test_corpus_loads_no_polynomial_series_or_matrix_module(modules_loaded, index):
    """No corpus entry, nor any before it, loads polynomials, series or
    linalg: no command divides polynomials, expands a series or builds a
    Matrix."""
    assert len(modules_loaded) == len(ENTRIES)
    loaded = modules_loaded[index]
    assert "trigonal4.cli" in loaded
    assert not loaded & {"trigonal4.polynomials", "trigonal4.series", "trigonal4.linalg"}


def test_canonical_corpus_requests_load_no_argparse():
    """Every corpus entry that exits 0 with a canonical argv, replayed in
    corpus order in one fresh interpreter without site (-S), leaves
    argparse unloaded: main reads it straight from the option table.  Every
    exit-0 analyze and residue-check entry is one of them."""
    ok = hashlib.sha256(b"0").hexdigest()
    succeeding = [e["argv"] for e in ENTRIES if e["exit"] == ok]
    canonical = [argv for argv in succeeding if cli.canonical_args(argv) is not None]
    assert [argv for argv in succeeding if argv[0] in ("analyze", "residue-check")] == [
        argv for argv in canonical if argv[0] in ("analyze", "residue-check")
    ]
    tests = Path(__file__).resolve().parent
    code = (
        "import json, sys\n"
        "from golden.record import run\n"
        f"for argv in json.loads({json.dumps(canonical)!r}):\n"
        "    assert run(argv)['exit'] == " + repr(ok) + "\n"
        "    print('argparse' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False"] * len(canonical)
