import io
import json

import pytest

from trigonal4.cli import main
from trigonal4.errors import DegenerateInput
from trigonal4.qz24 import ANNOTATION, CONIC_VALUE, COVECTOR, probe_at
from trigonal4.scalars import Scalar

SAMPLES = [Scalar.of(2), Scalar.of(-1), Scalar.parse("1/2"), Scalar.parse("-1/3+2*w"), Scalar.parse("5*w")]


def test_probe_reads_the_printed_closed_forms():
    # probe_at against the printed texts, read term by term at sampled a;
    # tests/test_closed_forms.py proves the texts in generic a
    assert COVECTOR == (("0", "1"), ("1/3", "a^2-a"), ("0", "1"))
    assert CONIC_VALUE == ("-1/9", "a^4-2*a^3+a^2")
    zero = Scalar.zero()
    for a in SAMPLES:
        covector, value = probe_at(a)
        assert covector == (zero, Scalar.one() / 3 / (a ** 2 - a), zero)
        assert value == Scalar.of(-1) / 9 / (a ** 4 - 2 * a ** 3 + a ** 2)


def test_conic_value_and_sample_point():
    assert CONIC_VALUE[0] != "0"  # a nonzero numerator: off the conic
    zero = Scalar.zero()
    assert probe_at(Scalar.of(2)) == ((zero, Scalar.one() / 6, zero), Scalar.of(-1) / 36)
    out = io.StringIO()
    assert main(["qz24"], out) == 0
    doc = json.loads(out.getvalue())
    assert doc["covector"] == [{"num": num, "den": den} for num, den in COVECTOR]
    assert doc["conic_value"] == {"num": "-1/9", "den": "a^4-2*a^3+a^2"}
    assert doc["variant"] == "NotOnConic"
    assert doc["open_question"] == ANNOTATION


def test_report_rejects_degenerate_parameter():
    with pytest.raises(DegenerateInput):
        probe_at(Scalar.one())
    with pytest.raises(DegenerateInput):
        probe_at(Scalar.zero())
    with pytest.raises(DegenerateInput):
        probe_at(Scalar.zeta())
    probe_at(Scalar.of(2))  # fine
