"""No command divides polynomials: every command line in
tests/golden/corpus.json prints the same bytes with ``UniPoly.divmod`` made
to raise.  Polynomial gcd, ``//`` and ``%`` all go through ``divmod``, so a
command that reached any of them would change its digests."""

import json

import pytest

from trigonal4.polynomials import UniPoly

from golden.record import CORPUS, argv_id, run

ENTRIES = json.loads(CORPUS.read_text())


def _refuse(self, divisor):
    raise AssertionError("a command divided polynomials")


@pytest.mark.parametrize("entry", ENTRIES, ids=[argv_id(e["argv"]) for e in ENTRIES])
def test_corpus_entry_divides_no_polynomials(monkeypatch, entry):
    monkeypatch.setattr(UniPoly, "divmod", _refuse)
    assert run(entry["argv"]) == entry
