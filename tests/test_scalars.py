from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from trigonal4.errors import DegenerateInput
from trigonal4.scalars import INFINITY, Scalar, _sqrt_fraction, parse_projective

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


def _reference_sqrt(z):
    """The case analysis Scalar.sqrt used before its norm-and-trace form:
    solve (x + y*w)**2 = c + d*w for y**2, then try both signs."""
    c, d = z.rational_part, z.zeta_part
    if not z:
        return Scalar.zero()
    if not d:
        r = _sqrt_fraction(c)
        if r is not None:
            return Scalar(r)
        # (x + 2x*w)^2 = -3x^2, so negative rationals of the right shape
        r = _sqrt_fraction(-c / 3)
        if r is not None:
            return Scalar(r, 2 * r)
        return None
    # Solve (x + y*w)^2 = c + d*w: x^2 - y^2 = c, 2xy - y^2 = d, y != 0.
    # Eliminating x: 3B^2 + (4c - 2d)B - d^2 = 0 with B = y^2.
    disc = (4 * c - 2 * d) ** 2 + 12 * d * d
    s = _sqrt_fraction(disc)
    if s is None:
        return None
    for numerator in ((2 * d - 4 * c) + s, (2 * d - 4 * c) - s):
        big = numerator / 6
        if big <= 0:
            continue
        y = _sqrt_fraction(big)
        if y is None:
            continue
        x = (d + y * y) / (2 * y)
        for cand in (Scalar(x, y), Scalar(-x, -y)):
            if cand * cand == z:
                return cand
    return None


@given(scalars, st.sampled_from((1, -3, Scalar.zeta(), None)))
def test_sqrt_matches_reference(a, shape):
    # squares of every shape (times 1, -3 or w), and arbitrary scalars,
    # which are mostly not squares
    z = a if shape is None else a * a * shape
    r, ref = z.sqrt(), _reference_sqrt(z)
    if ref is None:
        assert r is None
    else:
        assert r is not None and r * r == z and r in (ref, -ref)


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
