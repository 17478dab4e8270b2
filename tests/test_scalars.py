from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from trigonal4.errors import DegenerateInput
from trigonal4.scalars import INFINITY, Scalar, parse_projective

from conftest import scalar_strategy

scalars = scalar_strategy(bound=50, max_denominator=12)
nonzero_scalars = scalars.filter(bool)


def test_zeta_relations():
    w = Scalar.zeta()
    assert w ** 3 == Scalar.one()
    assert Scalar.one() + w + w * w == Scalar.zero()
    assert Scalar.zeta_power(2) == w * w


@given(scalars, scalars, scalars)
def test_field_axioms_additive_and_distributive(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, nonzero_scalars)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a


@given(nonzero_scalars)
def test_inverse_and_norm(a):
    assert a * a.inverse() == Scalar.one()
    assert a.norm() == (a * a.conjugate()).rational_part
    assert not (a * a.conjugate()).zeta_part


@given(scalars)
def test_conjugation_is_involutive_automorphism(a):
    assert a.conjugate().conjugate() == a


@given(scalars)
def test_literal_round_trip(a):
    assert Scalar.parse(str(a)) == a


def test_literal_forms():
    assert str(Scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2+-3/4*w"
    assert str(Scalar(Fraction(-1, 6))) == "-1/6"
    assert str(Scalar.zero()) == "0"
    assert str(Scalar(0, Fraction(2, 3))) == "2/3*w"
    assert Scalar.parse("1/2+-3/4*w") == Scalar(Fraction(1, 2), Fraction(-3, 4))
    # digits are ASCII: Arabic-Indic digits are not literals
    for text in ("1 + w", "\u0663", "\u0663/\u0664", "1+\u0662*w"):
        with pytest.raises(DegenerateInput):
            Scalar.parse(text)


def test_parse_projective():
    assert parse_projective("inf") is INFINITY
    assert parse_projective("-2/3") == Scalar(Fraction(-2, 3))


@given(scalars)
def test_square_roots_found_for_squares(a):
    r = (a * a).sqrt()
    assert r is not None
    assert r * r == a * a


def test_sqrt_examples():
    assert Scalar.of(4).sqrt() == Scalar.of(2)
    assert Scalar.of(2).sqrt() is None
    # -3 = (1 + 2w)**2
    r = Scalar.of(-3).sqrt()
    assert r is not None and r * r == Scalar.of(-3)
    # w itself is the square of -w**2
    r = Scalar.zeta().sqrt()
    assert r is not None and r * r == Scalar.zeta()


@given(scalars, scalars)
def test_sort_key_total_order(a, b):
    assert (a.sort_key() == b.sort_key()) == (a == b)


def test_complex_embedding():
    w = complex(Scalar.zeta())
    assert abs(w ** 3 - 1) < 1e-12
    assert abs(1 + w + w * w) < 1e-12


def test_cube_costs_two_multiplications(monkeypatch):
    u = Scalar.parse("-4/3+-3*w")
    expected = u * u * u
    calls = []
    multiply = Scalar.__mul__

    def counting(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    assert u ** 3 == expected
    assert len(calls) == 2


@given(scalar_strategy(bound=6, max_denominator=4), st.integers(min_value=-4, max_value=8))
def test_power_is_repeated_product(x, n):
    assume(n >= 0 or x)
    expected = Scalar.one()
    for _ in range(abs(n)):
        expected = expected * x
    if n < 0:
        expected = expected.inverse()
    assert x ** n == expected


def test_power_edge_cases():
    assert Scalar.zero() ** 0 == Scalar.one()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero() ** -1
