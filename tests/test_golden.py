"""Byte identity: every command line in tests/golden/corpus.json still prints
the same stdout and stderr and exits with the same code.  The corpus is
regenerated by tests/golden/record.py, which also holds the replay."""

import json

import pytest

from golden.record import CORPUS, run

ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_corpus_entry_is_byte_identical(entry):
    assert run(entry["argv"]) == entry
