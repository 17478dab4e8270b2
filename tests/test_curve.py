import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from trigonal4 import curve, report
from trigonal4.curve import (
    BranchPoint,
    CurveParams,
    Differential,
    Divisor,
    FiberLocus,
    FiberPoint,
    FinitePoint,
    InfinityPoint,
    PlaceLocus,
    branch_inversion,
    divisor_of,
    trigonal_fiber,
    validate_params,
)
from trigonal4.errors import DegenerateInput, InvalidParameters, StructuralError
from trigonal4.prng import SplitMix64, sample_params, sample_scalar
from trigonal4.scalars import INFINITY, Scalar
from trigonal4.series import series_of_poly, LocalSeries

import oracles.curve
from conftest import scalar_strategy
from oracles.curve import OMEGA, canonical_map, divisor_min, divisor_of_function, normalize_projective
from oracles.polynomials import RationalFunction, from_roots, from_scalars


# -- parameter validation ----------------------------------------------------


def test_validate_params_accepts_base_point(u023):
    assert u023.q_poly.degree == 6
    assert len(u023.branch_x) == 6


def test_validate_params_rejects_unit_cube():
    with pytest.raises(InvalidParameters, match="u1\\^3 = 1"):
        validate_params(1, 2, 3)
    with pytest.raises(InvalidParameters, match="u2\\^3 = 1"):
        validate_params(0, Scalar.zeta(), 3)


def test_validate_params_rejects_collision():
    with pytest.raises(InvalidParameters, match="u1 = u2"):
        validate_params(2, 2, 3)


def test_validate_params_checks_collisions_before_cubes():
    # u1 = u2 = 1 breaks both conditions; distinctness is checked first,
    # and the cubes in the order u1, u2, u3
    with pytest.raises(InvalidParameters, match="^u1 = u2$"):
        validate_params(1, 1, 3)
    with pytest.raises(InvalidParameters, match="^u2\\^3 = 1$"):
        validate_params(5, Scalar.zeta(), 1)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=30)
def test_closed_form_curve_data_matches_roots(seed):
    # Q from the elementary symmetric functions of u against the product of
    # (x - b) over the six branch x; the stored Q'(u_j) against Horner on
    # the triples of the expanded Q, and that against UniPoly evaluation
    rng = SplitMix64(seed)
    params = sample_params(rng)
    assert params.q_poly == from_roots(params.branch_x)
    assert params.qprime == params.q_poly.derivative()
    assert params.qprime_u == tuple(params.qprime_at(uj) for uj in params.u)
    x = sample_scalar(rng)
    assert params.qprime_at(x) == params.qprime.evaluate(x)
    # the six branch x are pairwise distinct, so Q is squarefree
    assert all(params.qprime_at(b) for b in params.branch_x)


def test_params_equality_and_hash_read_u_alone(u023):
    again = validate_params(Scalar.of(0), Scalar.of(2), Scalar.of(3))
    assert again == u023 and hash(again) == hash(u023)
    altered = CurveParams(u023.u, (), ())
    assert altered == u023 and hash(altered) == hash(u023)
    assert validate_params(0, 2, 4) != u023
    # validation keeps the differences and u_j**3 - 1; Q'(u_j) is built from
    # them on first read
    assert "qprime_u" not in vars(again)
    assert again.qprime_u == (Scalar.of(-6), Scalar.of(-14), Scalar.of(78))
    # Q, Q' and the branch x are built on first read, equal to the closed
    # forms validate_params once built eagerly (e1, e2, e3 = 5, 6, 0 here)
    assert not {"q_poly", "qprime", "branch_x"} & set(vars(altered))
    assert altered.q_poly == from_scalars((0, -6, 5, -1, 6, -5, 1))
    assert altered.qprime == from_scalars((-6, 10, -3, 24, -25, 6))
    assert altered.branch_x == (Scalar.one(), Scalar.zeta(), Scalar.zeta_power(2)) + u023.u


# -- local expansions ----------------------------------------------------------


def test_branch_inversion_example(u023):
    # x(y) at the branch over 0 starts 0 - y**3/6 (Q'(0) = -6)
    d = branch_inversion(u023, Scalar.zero(), 22)
    assert d.coefficient(3) == Scalar.of(-1) / 6
    assert all(n % 3 == 0 for n in d.known_exponents())


@given(scalar_strategy(bound=4, max_denominator=2))
@settings(max_examples=12)
def test_branch_inversion_inverts_q(shift):
    try:
        params = validate_params(shift, shift + 5, shift - 7)
    except InvalidParameters:
        return
    x0 = params.u[0]
    d = branch_inversion(params, x0, 19)
    shifted = params.q_poly.taylor_shift(x0)
    composed = series_of_poly(shifted, d)
    # Q(x0 + D(y)) = y**3 through the truncation
    assert composed.coefficient(3) == Scalar.one()
    for n in composed.known_exponents():
        if n != 3:
            assert not composed.coefficient(n)


def _reference_branch_inversion(params, x0, trunc):
    """D(y) by Newton's iteration on Q(x0 + D) = y**3, started at y**3/Q'(x0);
    each step doubles the number of correct terms."""
    shifted = params.q_poly.taylor_shift(x0)
    shifted_prime = shifted.derivative()
    y_cubed = LocalSeries.monomial(3, Scalar.one(), trunc)
    d = LocalSeries.monomial(3, params.qprime_at(x0).inverse(), trunc)
    for _ in range(12):
        residual = series_of_poly(shifted, d) - y_cubed
        if residual.valuation() is None:
            return d
        d = d - residual * series_of_poly(shifted_prime, d).inverse()
    raise AssertionError("reference Newton iteration did not converge")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_branch_inversion_matches_newton(seed):
    # Lagrange inversion against Newton's iteration at every branch point of
    # a seeded Q(w) point, truncation included.
    params = sample_params(SplitMix64(seed))
    for x0 in params.branch_x:
        for trunc in (11, 22, 50):
            assert branch_inversion(params, x0, trunc) == _reference_branch_inversion(params, x0, trunc)


def test_local_series_of_constant(u023):
    d = branch_inversion(u023, Scalar.zero(), 22)
    # a constant function expands to itself
    assert not d.coefficient(0)


def test_branch_inversion_rejects_nonbranch_center(u023):
    with pytest.raises(DegenerateInput):
        branch_inversion(u023, Scalar.of(5), 22)


# -- divisors -------------------------------------------------------------------


def _sample_entries():
    two, five, one = Scalar.of(2), Scalar.of(5), Scalar.one()
    return [
        BranchPoint(two), BranchPoint(five), FiberPoint(two),
        FinitePoint(two, five), FinitePoint(five, five), FinitePoint(two, two),
        FiberLocus((two, five, one)), FiberLocus((five, two, one)),
        PlaceLocus((two, five, one), (two,)), PlaceLocus((five, two, one), (two,)),
        PlaceLocus((two, five, one), (five,)),
        InfinityPoint(0), InfinityPoint(1),
    ]


def test_divisor_entries_equal_exactly_when_class_and_fields_match():
    # entries key a divisor's dict: two builds of one entry are one key, and
    # entries of different classes or any differing field are different keys
    firsts, seconds = _sample_entries(), _sample_entries()
    for i, p in enumerate(firsts):
        assert [p == q for q in seconds] == [i == j for j in range(len(seconds))], p.kind
        assert hash(p) == hash(seconds[i])
    assert len(set(firsts) | set(seconds)) == len(firsts)


def test_divisor_print_order_is_kind_then_fields():
    # kinds in the order branch, finite, fiber, fiber_locus, place_locus,
    # infinity, then field by field; a scalar orders by its canonical triple
    # (a, b, d), not by value: 1/2 before 1/3, 1/2+w before 2, w before 1
    S = Scalar.parse
    x2, x3 = (S("-7"), S("0"), S("1")), (S("-3"), S("0"), S("1"))
    expected = [
        (BranchPoint(S("-1")), 3),
        (BranchPoint(S("1/2")), 3),
        (BranchPoint(S("1/3")), 3),
        (BranchPoint(S("2")), 3),
        (FinitePoint(S("1/2+1*w"), S("1")), -1),
        (FinitePoint(S("2"), S("-1")), 1),
        (FinitePoint(S("2"), S("1*w")), 1),
        (FiberPoint(S("-1")), 2),
        (FiberPoint(S("2")), 1),
        (FiberLocus(x2), 1),
        (FiberLocus(x3), -2),
        (PlaceLocus(x2, (S("1/3*w"), S("2"))), 1),
        (PlaceLocus(x2, (S("1"),)), 1),
        (PlaceLocus(x3, (S("-1"),)), 1),
        (InfinityPoint(0), -1),
        (InfinityPoint(2), 2),
    ]
    shuffled = expected[1::2][::-1] + expected[::2]
    assert Divisor.of(*shuffled).items_sorted() == expected


def test_divisor_of_zero_rejected(u023):
    with pytest.raises(DegenerateInput):
        divisor_of(u023, Differential(0, (0, 0, 0)))


def test_divisor_of_omega0_is_branch_divisor(u023):
    div = divisor_of(u023, OMEGA[0])
    assert div == Divisor.of(*((BranchPoint(b), 1) for b in u023.branch_x))
    assert div.degree == 6


def test_divisor_of_omega1_is_double_infinity(u023):
    div = divisor_of(u023, OMEGA[1])
    assert div == Divisor.of(*((InfinityPoint(s), 2) for s in range(3)))


def test_divisor_of_omega2_branch_case(u023):
    div = divisor_of(u023, OMEGA[2])
    expected = Divisor.of(
        (BranchPoint(Scalar.zero()), 3),
        (InfinityPoint(0), 1),
        (InfinityPoint(1), 1),
        (InfinityPoint(2), 1),
    )
    assert div == expected


@given(st.lists(scalar_strategy(bound=8, max_denominator=3), min_size=4, max_size=4))
@settings(max_examples=25)
def test_divisor_degree_always_six(u023, coeffs):
    d = Differential(coeffs[0], coeffs[1:])
    if d.is_zero():
        return
    div = divisor_of(u023, d)
    assert div.degree == 6
    assert div.is_effective()


def test_trigonal_fiber_cases(u023):
    assert trigonal_fiber(u023, Scalar.zero()) == Divisor.of((BranchPoint(Scalar.zero()), 3))
    assert trigonal_fiber(u023, INFINITY).degree == 3
    fib = trigonal_fiber(u023, Scalar.of(5))
    assert fib.degree == 3
    assert u023.q_poly.evaluate(Scalar.of(5)) == Scalar.of(3720)


def test_kernel_combination_contains_fiber(u023):
    # w2 - u_j*w1 and w3 - u_j*w2 both vanish on the fiber over u_j
    for j in range(3):
        uj = u023.u[j]
        fib = trigonal_fiber(u023, uj)
        d1 = OMEGA[2] - OMEGA[1].scale(uj)
        d2 = OMEGA[3] - OMEGA[2].scale(uj)
        assert divisor_of(u023, d1) >= fib
        assert divisor_of(u023, d2) >= fib


def test_divisor_of_function_witness(u023):
    f = RationalFunction(from_scalars((-5, 1)), from_scalars((-6, 1)))
    div = divisor_of_function(u023, f)
    assert div == trigonal_fiber(u023, Scalar.of(5)) - trigonal_fiber(u023, Scalar.of(6))
    # x alone: 3*Branch(0) - infinity fiber at u=(0,2,3)
    div_x = divisor_of_function(u023, RationalFunction.of(from_scalars((0, 1))))
    assert div_x == trigonal_fiber(u023, Scalar.zero()) - trigonal_fiber(u023, INFINITY)


@given(st.lists(scalar_strategy(bound=9, max_denominator=2), min_size=1, max_size=5, unique=True))
@example([Scalar.of(5), Scalar.of(6), Scalar.of(7)])
@example([Scalar.of(5), Scalar.of(6)])
@settings(max_examples=30)
def test_divisor_of_root_product_is_sum_of_fibers(u023, roots):
    # from degree 2 on, prod (x - r) stays one locus (Fiber[x^3-18*x^2+107*x-210]
    # for 5, 6, 7): comparison splits it at the x of the other side's points
    roots = [r for r in roots if not u023.is_branch_x(r)]
    if not roots:
        return
    div = divisor_of_function(u023, RationalFunction.of(from_roots(roots)))
    fibers = sum((trigonal_fiber(u023, r) for r in roots), Divisor.zero())
    expected = fibers - len(roots) * trigonal_fiber(u023, INFINITY)
    assert div == expected and expected == div
    assert div >= expected and expected >= div
    assert divisor_min(div + len(roots) * trigonal_fiber(u023, INFINITY), fibers) == fibers


def test_divisor_min_branch_fiber(u023):
    a = divisor_of(u023, OMEGA[2])                     # 3 Branch(0) + infinity fiber
    b = divisor_of(u023, OMEGA[3])                     # 6 Branch(0)
    m = divisor_min(a, b)
    assert m == Divisor.of((BranchPoint(Scalar.zero()), 3))


def test_divisor_min_splits_a_fiber_at_a_locus_root(u248):
    # A fiber split off a locus, or compared with one, splits into its three
    # points once a point over its x is known on either side.
    # At u=(2,4,8) the form x(x - 5) dx/y**2 stores Fiber[x^2-5*x], and
    # (0, 4) is a curve point.
    div = divisor_of(u248, Differential(Scalar.zero(), (Scalar.zero(), Scalar.of(-5), Scalar.one())))
    assert str(div) == "1*Fiber[x^2-5*x]"
    point = Divisor.of((FinitePoint(Scalar.zero(), Scalar.of(4)), 1))
    assert div >= point
    assert divisor_min(div, point) == point
    # At u=(-1,2,4), Q(-2) = 6**3 and Q(0) = (-2)**3, and f = y + 4x + 2
    # vanishes at (-2, 6) and (0, -2); its norm stays one sextic place locus.
    params = validate_params(-1, 2, 4)
    div = divisor_of(params, Differential(Scalar.one(), (Scalar.of(2), Scalar.of(4), Scalar.zero())))
    assert [type(p) for p in div.entries if p.kind != "infinity"] == [PlaceLocus]
    for x0, y0 in ((-2, 6), (0, -2)):
        point = Divisor.of((FinitePoint(Scalar.of(x0), Scalar.of(y0)), 1))
        assert divisor_min(div, trigonal_fiber(params, Scalar.of(x0))) == point
        assert div >= point


def test_divisor_hash_agrees_with_equality(u248):
    # __eq__ splits the collective fiber over x = 0 into the three points
    # (0, 4*w**k); the hash has to see the two spellings alike as well.
    points = Divisor.of(*((FinitePoint(Scalar.zero(), 4 * Scalar.zeta() ** k), 1) for k in range(3)))
    fiber = trigonal_fiber(u248, Scalar.zero())
    assert points == fiber
    assert hash(points) == hash(fiber)
    assert len({points, fiber}) == 1


@pytest.mark.parametrize(
    "pair, text",
    [
        ((0, 1), "1*Place[x^6-5*x^5+6*x^4-x^3+5*x^2-6*x+1; y=-1]"),
        ((0, 2), "1*Branch(0) + 1*Place[x^5-5*x^4+6*x^3+5*x-6; y=-x]"),
    ],
    ids=["w0+w1", "w0+w2"],
)
def test_divisor_with_place_locus(u023, pair, text):
    # b0 != 0 and a resolvent factor with no root in Q(w): one curve point
    # per root, y read off a residue polynomial
    d = OMEGA[pair[0]] + OMEGA[pair[1]]
    div = divisor_of(u023, d)
    assert any(isinstance(p, PlaceLocus) for p in div.entries)
    assert div == divisor_of(u023, d.scale(3))
    assert divisor_min(div, div) == div
    assert div >= div
    assert str(div) == text
    kinds = [point["kind"] for point, _ in report.divisor_json(div)]
    assert kinds[-1] == "place_locus"


def _hyperflex_params():
    # u = (-1, -w, -w**2) gives y**3 = x**6 - 1, where y = w**s x**2 (1 - x**-6)**(1/3)
    w = Scalar.zeta()
    return validate_params(-1, -w, -w * w)


@pytest.mark.parametrize("sheet", [0, 1, 2])
def test_divisor_of_form_with_order_six_at_infinity(sheet):
    # y - w**s x**2 = -(w**s/3) x**-4 + ... at Inf(s): w0 - w**s w3 vanishes there
    # to the canonical degree 6, the deepest infinity read of divisor_of
    params = _hyperflex_params()
    d = OMEGA[0] - OMEGA[3].scale(Scalar.zeta_power(sheet))
    assert divisor_of(params, d) == Divisor.of((InfinityPoint(sheet), 6))


def test_infinity_order_truncation_is_the_least_that_reads(monkeypatch):
    params = _hyperflex_params()
    monkeypatch.setattr(curve, "_INFINITY_ORDER_TRUNCATION", curve._INFINITY_ORDER_TRUNCATION - 1)
    with pytest.raises(StructuralError):
        divisor_of(params, OMEGA[0] - OMEGA[3])


# -- canonical map -----------------------------------------------------------------


def test_canonical_map_truncation_is_the_least_that_reads(monkeypatch, u023):
    point = BranchPoint(Scalar.of(3))
    monkeypatch.setattr(oracles.curve, "_CANONICAL_MAP_TRUNCATION", oracles.curve._CANONICAL_MAP_TRUNCATION - 1)
    with pytest.raises((StructuralError, ZeroDivisionError)):
        canonical_map(u023, point)


def test_canonical_map_examples(u023, u248):
    z = canonical_map(u248, FinitePoint(Scalar.zero(), Scalar.of(4)))
    assert z == normalize_projective((Scalar.of(4), Scalar.one(), Scalar.zero(), Scalar.zero()))
    z = canonical_map(u023, BranchPoint(Scalar.of(3)))
    assert z == normalize_projective((Scalar.zero(), Scalar.one(), Scalar.of(3), Scalar.of(9)))
    for s in range(3):
        z = canonical_map(u023, InfinityPoint(s))
        assert z == normalize_projective((Scalar.zeta_power(s), Scalar.zero(), Scalar.zero(), Scalar.one()))


def test_canonical_map_lands_on_quadric(u023, u248):
    pts = [BranchPoint(b) for b in u023.branch_x] + [InfinityPoint(s) for s in range(3)]
    for p in pts:
        z = canonical_map(u023, p)
        assert z[2] * z[2] - z[1] * z[3] == Scalar.zero()
    z = canonical_map(u248, FinitePoint(Scalar.zero(), Scalar.of(4)))
    assert z[2] * z[2] - z[1] * z[3] == Scalar.zero()


def test_divisor_contains_fiber_of_root(u023):
    # a 1-form with coefficient polynomial having root r vanishes on the
    # whole fiber over r
    r = Scalar.of(7)
    poly_coeffs = (r * Scalar.of(-3), Scalar.of(3) - r, Scalar.one())  # (x - r)(x + 3)
    d = Differential(Scalar.zero(), poly_coeffs)
    div = divisor_of(u023, d)
    assert div >= trigonal_fiber(u023, r)
    # the squarefree factor (x - 7)(x + 3) is stored as one locus, and
    # compares as the two fibers it stands for
    assert [type(p) for p in div.entries] == [FiberLocus]
    assert str(div) == "1*Fiber[x^2-4*x-21]"
    fibers = trigonal_fiber(u023, r) + trigonal_fiber(u023, Scalar.of(-3))
    assert div == fibers and fibers == div
    assert hash(div) == hash(fibers)
    assert div >= fibers and div <= fibers
