import hypothesis.strategies as st
import pytest
from hypothesis import given

from trigonal4.errors import DegenerateInput
from trigonal4.polynomials import UniPoly, poly_gcd, squarefree_decomposition
from trigonal4.scalars import Scalar

from conftest import scalar_strategy
from oracles.polynomials import RationalFunction, from_roots, from_scalars, x

small_scalars = scalar_strategy(bound=9, max_denominator=4)
polys = st.lists(small_scalars, min_size=0, max_size=5).map(from_scalars)
nonzero_polys = polys.filter(bool)


def P(*ints) -> UniPoly:
    return from_scalars(ints)


def test_gcd_examples():
    # gcd(x**2 - 1, x - 1) = x - 1
    assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)
    # coprime linear factors
    assert poly_gcd(P(-2, 1), P(-3, 1)) == P(1)
    # gcd((x-u)**2, x(x-u)) = x - u for u = 5
    u = Scalar.of(5)
    sq = from_roots((u, u))
    mixed = from_roots((Scalar.zero(), u))
    g = poly_gcd(sq, mixed)
    assert g == from_roots((u,))
    # division oracle: the gcd divides both inputs exactly
    assert not (sq % g) and not (mixed % g)


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    assert not (p % g) and not (q % g)
    assert g.degree <= min(p.degree, q.degree)


def test_gcd_of_zeros_rejected():
    with pytest.raises(DegenerateInput):
        poly_gcd(UniPoly(()), UniPoly(()))


@given(nonzero_polys, nonzero_polys)
def test_divmod_identity(p, q):
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.degree < q.degree


def test_squarefree_decomposition():
    p = P(-1, 1) ** 2 * P(-3, 1) * P(0, 1) ** 3
    parts = dict((f.coefficients, m) for f, m in squarefree_decomposition(p))
    assert parts == {
        P(-3, 1).coefficients: 1,
        P(-1, 1).coefficients: 2,
        P(0, 1).coefficients: 3,
    }


def _multiplicity(p, r):
    # how curve divisors read a root's multiplicity: the m of the one
    # squarefree factor that vanishes at r, or 0
    ms = [m for f, m in squarefree_decomposition(p) if not f.evaluate(r)]
    assert len(ms) <= 1
    return ms[0] if ms else 0


def test_root_multiplicity():
    p = from_roots((Scalar.of(2), Scalar.of(2), Scalar.of(3)))
    assert _multiplicity(p, Scalar.of(2)) == 2
    assert _multiplicity(p, Scalar.of(3)) == 1
    assert _multiplicity(p, Scalar.of(4)) == 0


def test_scalar_roots_quadratic_in_field():
    # x**2 + x + 1 has roots w and w**2: its squared form is one factor of
    # multiplicity 2, and dividing out x - w leaves x - w**2 exactly
    w, w2 = Scalar.zeta(), Scalar.zeta_power(2)
    assert squarefree_decomposition(P(1, 1, 1) ** 2) == [(P(1, 1, 1), 2)]
    assert _multiplicity(P(1, 1, 1) ** 2, w) == 2
    assert _multiplicity(P(1, 1, 1) ** 2, w2) == 2
    quot, rem = P(1, 1, 1).divmod(from_roots((w,)))
    assert not rem and quot == from_roots((w2,))


def test_scalar_roots_irrational_stay_grouped():
    # x**2 - 2 has no root in Q(w): it stays one factor next to x - 1
    p = P(-2, 0, 1) ** 2 * P(-1, 1)
    parts = dict((f.coefficients, m) for f, m in squarefree_decomposition(p))
    assert parts == {P(-1, 1).coefficients: 1, P(-2, 0, 1).coefficients: 2}


def test_taylor_shift():
    p = P(1, 0, 1)  # x**2 + 1
    shifted = p.taylor_shift(Scalar.of(3))  # (3+s)**2 + 1 = 10 + 6 s + s**2
    assert shifted == P(10, 6, 1)


@given(nonzero_polys, small_scalars)
def test_taylor_shift_evaluates_consistently(p, a):
    assert p.taylor_shift(a).evaluate(Scalar.zero()) == p.evaluate(a)


def test_rational_function_normal_form():
    f = RationalFunction(P(0, 2), P(0, 0, 4))  # 2x / 4x**2 = (1/2)/x
    assert f.numerator.degree == 0
    assert f.denominator == P(0, 1)
    assert f == RationalFunction(P(1), P(0, 2))


@given(nonzero_polys, nonzero_polys)
def test_rational_function_field_ops(p, q):
    f = RationalFunction(p, q)
    assert f * f.inverse() == RationalFunction.of(Scalar.one())
    assert f - f == RationalFunction.zero()


@given(polys, st.integers(min_value=-4, max_value=8))
def test_power_is_repeated_product(p, n):
    if n < 0 or (n == 0 and not p):
        with pytest.raises(DegenerateInput):
            p ** n
        return
    expected = P(1)
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


def test_power_over_polynomial_coefficients():
    # x ** 0 is the one of the coefficient ring, here Q(w)[c]
    c, one = x(), UniPoly((Scalar.one(),))
    poly = UniPoly((c, one))  # c + x over Q(w)[c]
    assert poly ** 0 == UniPoly((one,))
    assert poly ** 3 == poly * poly * poly
