import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from trigonal4 import curve
from trigonal4.curve import divisor_of, trigonal_fiber
from trigonal4.errors import DegenerateInput
from trigonal4.prng import SplitMix64, sample_params, sample_scalar
from trigonal4.report import divisor_json
from trigonal4.rulings import d0_cycle, principal_witness, relation_t2, ruling_divisor, ruling_parameter_x
from trigonal4.scalars import INFINITY, Scalar

from conftest import scalar_strategy
from oracles.curve import common_zeros_by_divisors, divisor_ge, divisor_of_function, same_divisor, subtract
from oracles.rulings import ruling_line, witness_function


def t_values():
    return st.one_of(scalar_strategy(bound=8, max_denominator=4), st.just(INFINITY))


def test_ruling_divisor_examples(u023):
    quarter = Scalar.parse("1/4")
    assert ruling_divisor(u023, quarter, 1) == trigonal_fiber(u023, Scalar.of(5))
    assert ruling_divisor(u023, Scalar.of(6), 2) == trigonal_fiber(u023, Scalar.of(5))
    assert ruling_divisor(u023, Scalar.one(), 1) == trigonal_fiber(u023, Scalar.of(2))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ruling_divisor_matches_divisor_oracle(u023, seed):
    # Closed form against the common zeros of the line's two hyperplane
    # forms, for both families at t = 0, 1, infinity and random t, at
    # (0, 2, 3) (where t = 1 of family 1 lands on the branch point 2) and at
    # a random parameter point.
    rng = SplitMix64(seed)
    for params in (u023, sample_params(rng)):
        for t in (Scalar.zero(), Scalar.one(), INFINITY, sample_scalar(rng), sample_scalar(rng)):
            for family in (1, 2):
                closed = ruling_divisor(params, t, family)
                oracle = common_zeros_by_divisors(params, *ruling_line(params, t, family).hyperplanes)
                assert closed == oracle
                assert divisor_json(closed) == divisor_json(oracle)


def test_ruling_lines_lie_on_quadric(u023):
    # sweep the line parametrically and check z2**2 - z1*z3 = 0 identically:
    # both hyperplane forms vanish on the ruling divisor by construction
    for family in (1, 2):
        for t in (Scalar.zero(), Scalar.one(), Scalar.of(-3), INFINITY):
            line = ruling_line(u023, t, family)
            div = ruling_divisor(u023, t, family)
            for h in line.hyperplanes:
                if h.is_zero():
                    continue
                assert divisor_ge(divisor_of(u023, h), div)


@given(t_values())
@settings(max_examples=30)
def test_ruling_divisor_degree_three(u023, t):
    for family in (1, 2):
        assert ruling_divisor(u023, t, family).degree == 3


@given(t_values())
@settings(max_examples=30)
def test_d0_trivial_under_relation(u023, t1):
    cycle = d0_cycle(u023, t1)
    assert cycle.plus == cycle.minus
    assert cycle.witness == "trivially equal"


def test_d0_edge_cases(u023):
    c = d0_cycle(u023, Scalar.zero())
    assert c.t2 is INFINITY
    assert c.plus == trigonal_fiber(u023, INFINITY)
    assert c.plus == c.minus
    c = d0_cycle(u023, INFINITY)
    assert c.t2 == Scalar.of(2)
    assert c.plus == trigonal_fiber(u023, Scalar.one())
    c = d0_cycle(u023, Scalar.one())  # x0 = 2 = u2, a branch fiber
    assert c.plus == trigonal_fiber(u023, Scalar.of(2))


def test_d0_compares_fiber_parameters(monkeypatch, u023):
    # Both sides are trigonal fibers, equal exactly when their parameters
    # are: no d0 cycle compares divisors.
    def refuse(*args):
        raise AssertionError("d0 compared divisors")

    monkeypatch.setattr(curve.Divisor, "__eq__", refuse)
    for t1, t2, witness in ((Scalar.one(), Scalar.of(3), "trivially equal"), (INFINITY, INFINITY, "x-1")):
        assert d0_cycle(u023, t1, t2).witness == witness
    assert d0_cycle(u023, Scalar.zero()).t2 is INFINITY


def test_d0_violating_pair(u023):
    c = d0_cycle(u023, Scalar.parse("1/4"), Scalar.of(7))
    assert c.plus == trigonal_fiber(u023, Scalar.of(5))
    assert c.minus == trigonal_fiber(u023, Scalar.of(6))
    assert c.witness == "(x-5)/(x-6)"


def test_principal_witness_examples(u023):
    # the divisor of the function each text names, read back from the text
    cases = (
        (Scalar.of(5), Scalar.of(6), "(x-5)/(x-6)"),
        (Scalar.of(5), INFINITY, "x-5"),
        (INFINITY, Scalar.of(-5), "1/(x+5)"),
        (Scalar.zero(), INFINITY, "x"),
        (Scalar.parse("1+1*w"), INFINITY, "x-(1+1*w)"),
    )
    for x1, x2, expected in cases:
        text = principal_witness(x1, x2)
        assert text == expected
        fiber_difference = subtract(trigonal_fiber(u023, x1), trigonal_fiber(u023, x2))
        assert same_divisor(divisor_of_function(u023, witness_function(text)), fiber_difference)
    with pytest.raises(DegenerateInput):
        principal_witness(Scalar.of(5), Scalar.of(5))


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from(["scalar", "branch", "infinity"]),
    st.sampled_from(["scalar", "branch", "infinity"]),
)
@settings(max_examples=40)
def test_principal_witness_realizes_the_fiber_difference(seed, kind1, kind2):
    # div(x - a) = fiber(a) - fiber(inf), so the witness is never checked on
    # the d0 path; the divisor computation must agree at every fiber kind
    rng = SplitMix64(seed)
    params = sample_params(rng)

    def draw(kind):
        if kind == "branch":
            return params.branch_x[rng.below(6)]
        return INFINITY if kind == "infinity" else sample_scalar(rng)

    x1, x2 = draw(kind1), draw(kind2)
    if x1 is x2 or (x1 is not INFINITY and x2 is not INFINITY and x1 == x2):
        return
    text = principal_witness(x1, x2)
    fiber_difference = subtract(trigonal_fiber(params, x1), trigonal_fiber(params, x2))
    assert same_divisor(divisor_of_function(params, witness_function(text)), fiber_difference)


@given(t_values())
@settings(max_examples=20)
def test_relation_round_trip(u023, t1):
    # the tied parameters cut the same x, two different ways
    x1 = ruling_parameter_x(t1, 1)
    x2 = ruling_parameter_x(relation_t2(t1), 2)
    if x1 is INFINITY or x2 is INFINITY:
        assert x1 is INFINITY and x2 is INFINITY
    else:
        assert x1 == x2
