import io
import json

import pytest

from trigonal4.cli import main
from trigonal4.errors import DegenerateInput, StructuralError
from trigonal4.qz24 import ANNOTATION, cube_family_report, evaluate_at
from trigonal4.scalars import Scalar

from oracles.polynomials import RationalFunction, from_scalars, x
from oracles.qz24 import _in_a, cube_family_covector

SAMPLES = [Scalar.of(2), Scalar.of(-1), Scalar.parse("1/2"), Scalar.parse("-1/3+2*w"), Scalar.parse("5*w")]


def test_descent_to_a():
    # a = c**3: only exponents divisible by 3 descend, and they descend to a.
    c = x()
    f = RationalFunction(c ** 3, c ** 6 + -(c ** 3))
    a = x()
    assert _in_a(f) == RationalFunction(a, a * a + -a)
    with pytest.raises(StructuralError):
        _in_a(RationalFunction.of(c))


def test_covector_closed_form():
    # c(a) = (0, 1/(3a(a-1)), 0): independently, Q'(u_j) = 3 u_j**2 (a-1)
    # and the power sums of the cube roots of a kill k = 1, 3.
    c1, c2, c3 = cube_family_covector()
    assert not c1 and not c3
    assert c2 == RationalFunction(from_scalars((1,)), from_scalars((0, -3, 3)))  # 3a**2 - 3a


def test_report_matches_the_oracle():
    # the closed form read by the report against the covector computed over
    # Q(w)(c), as rational functions of a and at sampled a
    report = cube_family_report()
    oracle = cube_family_covector()
    assert tuple(RationalFunction(*pair) for pair in report.covector) == oracle
    oracle_value = oracle[0] * oracle[2] - oracle[1] * oracle[1]
    assert RationalFunction(*report.conic_value) == oracle_value
    for a in SAMPLES:
        assert [evaluate_at(pair, a) for pair in report.covector] == [f.evaluate(a) for f in oracle]
        assert evaluate_at(report.conic_value, a) == oracle_value.evaluate(a)


def test_conic_value_and_sample_point():
    report = cube_family_report()
    assert report.conic_value[0]  # a nonzero numerator: off the conic
    a2 = Scalar.of(2)
    assert evaluate_at(report.covector[1], a2) == Scalar.one() / 6
    assert evaluate_at(report.conic_value, a2) == Scalar.of(-1) / 36
    out = io.StringIO()
    assert main(["qz24"], out) == 0
    doc = json.loads(out.getvalue())
    assert doc["variant"] == "NotOnConic"
    assert doc["open_question"] == ANNOTATION


def test_report_rejects_degenerate_parameter():
    with pytest.raises(DegenerateInput):
        cube_family_report(Scalar.one())
    with pytest.raises(DegenerateInput):
        cube_family_report(Scalar.zero())
    with pytest.raises(DegenerateInput):
        cube_family_report(Scalar.zeta())
    cube_family_report(Scalar.of(2))  # fine
