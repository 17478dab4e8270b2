"""Byte identity: every command line in tests/golden/corpus.json still prints
the same stdout and stderr and exits with the same code.  The corpus is
regenerated by tests/golden/record.py, which also holds the replay;
tests/golden/replay.py replays it without pytest."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
