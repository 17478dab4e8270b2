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


@pytest.mark.parametrize("index", range(len(ENTRIES)), ids=[argv_id(e["argv"]) for e in ENTRIES])
def test_corpus_loads_no_polynomial_series_or_matrix_module(traffic, index):
    """No corpus entry, nor any before it, loads polynomials, series or
    linalg: no command divides polynomials, expands a series or builds a
    Matrix."""
    loaded = traffic.records[index][2]
    assert "trigonal4.cli" in loaded
    assert not loaded & {"trigonal4.polynomials", "trigonal4.series", "trigonal4.linalg"}


def test_corpus_requests_that_exit_0_build_no_parser(traffic):
    """An entry loads argparse exactly when it builds the parser, and the
    entries that exit 0 and do so are exactly the help requests: main reads
    every other such argv, attached or separate values alike, straight from
    the option table."""
    records = traffic.records
    assert len(records) == len(ENTRIES)
    assert [built for built, _, _ in records] == [loaded for _, loaded, _ in records]
    ok = hashlib.sha256(b"0").hexdigest()
    loaded = [entry["argv"] for entry, (_, argparse, _) in zip(ENTRIES, records) if entry["exit"] == ok and argparse]
    assert loaded == [entry["argv"] for entry in ENTRIES if "-h" in entry["argv"]]


def _readme_experiments():
    """The command lines of README's Experiments passage, each without the
    program name."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme[readme.index("## Experiments"):].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines()]


EXPERIMENTS = _readme_experiments()


@pytest.mark.parametrize("argv", EXPERIMENTS, ids=[argv_id(argv) for argv in EXPERIMENTS])
def test_readme_experiment_is_a_corpus_entry_that_exits_0(argv):
    """Each experiment README gives is a corpus entry, so the corpus pins
    its bytes, and it succeeds."""
    entry = next((entry for entry in ENTRIES if entry["argv"] == argv), None)
    assert entry is not None, argv
    assert entry["exit"] == hashlib.sha256(b"0").hexdigest()
