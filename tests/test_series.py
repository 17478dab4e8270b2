import hypothesis.strategies as st
import pytest
from hypothesis import given

from trigonal4.errors import DegenerateInput
from trigonal4.scalars import Scalar
from trigonal4.series import LocalSeries, series_of_poly

from conftest import scalar_strategy
from oracles.polynomials import RationalFunction, from_scalars
from oracles.series import series_of_rational

small_scalars = scalar_strategy(bound=5, max_denominator=3)


def truncate(s: LocalSeries, truncation: int) -> LocalSeries:
    """The series with its truncation lowered to at most ``truncation``."""
    return LocalSeries(s.coefficients, min(s.truncation, truncation))


def series_strategy(truncation=8):
    return st.dictionaries(
        st.integers(min_value=-3, max_value=truncation - 1), small_scalars, max_size=5
    ).map(lambda d: LocalSeries(d, truncation))


@given(series_strategy(), series_strategy(), series_strategy())
def test_multiplication_distributes(a, b, c):
    left = a * (b + c)
    right = a * b + a * c
    trunc = min(left.truncation, right.truncation)
    assert truncate(left, trunc).coefficients == truncate(right, trunc).coefficients


@given(series_strategy().filter(lambda s: s.valuation() is not None))
def test_inverse_multiplies_to_one(a):
    prod = a * a.inverse()
    assert prod.valuation() == 0
    assert prod.coefficient(0) == Scalar.one()
    for n in prod.known_exponents():
        if n != 0:
            assert not prod.coefficient(n)


def test_cube_root_unit():
    base = LocalSeries({0: Scalar.one(), 1: Scalar.of(3), 2: Scalar.of(-2)}, 10)
    r = base.cube_root_unit()
    cubed = r * r * r
    for n in range(cubed.truncation):
        assert cubed.coefficient(n) == base.coefficient(n)


# -- differential references -----------------------------------------------
#
# The series layer solves every inverse and cube root with one recurrence
# (LocalSeries._unit_power).  These are the independent iterations it
# replaced, kept as references: the results must be == to theirs, truncation
# included.


def _reference_inverse(a):
    """1/a as a geometric series of full products in the tail of the unit."""
    v = a.valuation()
    lead = a.coefficients[v]
    rel = a.truncation - v
    unit = truncate(a.shift(-v).scale(lead.inverse()), rel)
    tail = unit - LocalSeries.constant(Scalar.one(), rel)
    result = LocalSeries.constant(Scalar.one(), rel)
    power = LocalSeries.constant(Scalar.one(), rel)
    sign = Scalar.one()
    tv = tail.valuation()
    if tv is not None:
        for _ in range(rel // tv + 1):
            power = truncate(power * tail, rel)
            sign = -sign
            if power.valuation() is None:
                break
            result = result + power.scale(sign)
    return result.scale(lead.inverse()).shift(-v)


def _reference_cube_root_unit(a):
    """The cube root with constant term 1, each term solved from the cube of
    the root so far (O(n**3))."""
    root = {0: Scalar.one()}
    for n in range(1, a.truncation):
        # [s**n](r**3) = 3*r_n + sum over i+j+k = n with i, j, k < n.
        acc = Scalar.zero()
        for i, ci in root.items():
            for j, cj in root.items():
                k = n - i - j
                if 0 <= k < n:
                    acc = acc + ci * cj * root.get(k, Scalar.zero())
        cn = (a.coefficients.get(n, Scalar.zero()) - acc) / 3
        if cn:
            root[n] = cn
    return LocalSeries(root, a.truncation)


def unit_series_strategy():
    return st.builds(
        lambda terms, truncation: LocalSeries({**terms, 0: Scalar.one()}, truncation),
        st.dictionaries(st.integers(min_value=1, max_value=15), small_scalars, max_size=5),
        st.integers(min_value=1, max_value=16),
    )


@given(
    st.integers(min_value=1, max_value=16).flatmap(series_strategy).filter(
        lambda s: s.valuation() is not None
    )
)
def test_inverse_matches_geometric_series(a):
    assert a.inverse() == _reference_inverse(a)


@given(unit_series_strategy())
def test_cube_root_matches_cubic_solve(a):
    assert a.cube_root_unit() == _reference_cube_root_unit(a)


@pytest.mark.parametrize(
    "terms",
    [{}, {0: Scalar.of(2)}, {-1: Scalar.one(), 0: Scalar.one()}, {1: Scalar.one()}],
    ids=["zero", "constant-2", "negative-valuation", "positive-valuation"],
)
def test_cube_root_unit_rejects_non_unit(terms):
    with pytest.raises(DegenerateInput):
        LocalSeries(terms, 6).cube_root_unit()


def test_series_of_poly_at_negative_valuation():
    # p(1/t) for p = x**2 + 2 becomes t**-2 + 2
    p = from_scalars((2, 0, 1))
    t_inv = LocalSeries.monomial(-1, Scalar.one(), 10)
    s = series_of_poly(p, t_inv)
    assert s.coefficient(-2) == Scalar.one()
    assert s.coefficient(0) == Scalar.of(2)
    assert s.coefficient(-1) == Scalar.zero()


def test_series_of_rational():
    # 1/(1 - s) = 1 + s + s**2 + ...
    f = RationalFunction(from_scalars((1,)), from_scalars((1, -1)))
    s = series_of_rational(f, LocalSeries.monomial(1, Scalar.one(), 6))
    for n in range(6):
        assert s.coefficient(n) == Scalar.one()


def test_derivative():
    s = LocalSeries({-2: Scalar.of(4), 0: Scalar.of(7), 3: Scalar.of(2)}, 9)
    d = s.derivative()
    assert d.coefficient(-3) == Scalar.of(-8)
    assert d.coefficient(2) == Scalar.of(6)
    assert d.coefficient(-1) == Scalar.zero()
