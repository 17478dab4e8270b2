import io
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from trigonal4 import cli, prng
from trigonal4.curve import validate_params
from trigonal4.errors import InvalidParameters
from trigonal4.prng import SplitMix64, sample_params, sample_scalar, sample_tangent

import oracles.prng
from oracles.polynomials import q_poly
from oracles.prng import GAMMA, ReferenceSplitMix64

COUNTS = (0, 1, 4, 12, 63, 64, 65, 200)


def test_splitmix64_reference_values():
    # splitmix64 from seed 1234567: first outputs of the reference algorithm
    rng = SplitMix64(1234567)
    first = rng.next_u64()
    rng2 = SplitMix64(1234567)
    assert rng2.next_u64() == first
    assert first != rng.next_u64()


def test_splitmix64_known_vector():
    # seed 0: the first draw of splitmix64 is the hash of the golden-ratio step
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    # the reference sequence goes on, and draws(n) steps it n times
    assert rng.draws(3) == [0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
    # the counter wraps at 2**64
    assert SplitMix64(2**64 - 1).draws(2) == [0xE4D971771B652C20, 0xE99FF867DBF682C9]


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    counts=st.lists(st.sampled_from(COUNTS), min_size=1, max_size=4),
)
@example(seed=2**64 - 1, counts=list(COUNTS))
@example(seed=2**64 - GAMMA, counts=list(COUNTS))  # the first step wraps to 0
def test_lane_packed_draws_match_the_stepwise_reference(seed, counts):
    # one pass for up to 64 outputs and several past it, each output and
    # the state after each call as the one-step-a-draw reference has them
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for n in counts:
        assert rng.draws(n) == reference.draws(n)
        assert rng.state == reference.state


def test_a_long_call_takes_passes_of_at_most_64_lanes():
    SplitMix64(3).draws(500)
    assert 0 < len(prng._lanes) <= max(prng._lanes) == prng.LANE_BOUND


def _first_rejected_seed() -> int:
    """The least seed whose first candidate base point is invalid."""
    for seed in itertools.count():
        reference = ReferenceSplitMix64(seed)
        try:
            validate_params(*(oracles.prng.sample_scalar(reference, 9, 3) for _ in range(3)))
        except InvalidParameters:
            return seed


def test_rejection_sampling_keeps_the_reference_stream():
    # the first candidate is rejected and a whole candidate is drawn again
    seed = _first_rejected_seed()
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    assert sample_params(rng).u == oracles.prng.sample_params(reference).u
    assert rng.state == reference.state != (seed + 12 * GAMMA) % 2**64
    assert sample_tangent(rng).a == oracles.prng.sample_tangent(reference).a
    assert rng.state == reference.state


class _Scripted:
    """A generator whose first outputs are given, and then those of another."""

    def __init__(self, head, generator):
        self.head, self.generator = list(head), generator

    def draws(self, n):
        taken, self.head = self.head[:n], self.head[n:]
        return taken + self.generator.draws(n - len(taken))

    def integer(self, lo, hi):
        return lo + self.draws(1)[0] % (hi - lo + 1)


def test_a_zero_direction_is_drawn_again():
    # a zero candidate has chance 361**-3, so it is scripted: outputs that
    # reduce to p = r = 0 for each coordinate, then the stream of a seed
    zero = [9, 0, 9, 0] * 3
    rng, reference = _Scripted(zero, SplitMix64(5)), _Scripted(zero, ReferenceSplitMix64(5))
    xi = sample_tangent(rng)
    assert not xi.is_zero() and xi.a == oracles.prng.sample_tangent(reference).a
    assert rng.generator.state == reference.generator.state == (5 + 12 * GAMMA) % 2**64


def test_samplers_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [sample_scalar(a) for _ in range(5)] == [sample_scalar(b) for _ in range(5)]
    assert sample_params(a).u == sample_params(b).u
    assert sample_tangent(a).a == sample_tangent(b).a


def test_samplers_refuse_an_empty_range():
    # below(0) has no value to draw; a sampled scalar needs bound >= 0 and
    # max_denominator >= 1.  Each refusal comes before any draw.
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="bound must be positive"):
        rng.below(0)
    for bound, max_denominator in ((-1, 4), (9, 0)):
        with pytest.raises(ValueError, match="bound must be >= 0 and max_denominator >= 1"):
            sample_scalar(rng, bound, max_denominator)
    assert rng.state == SplitMix64(5).state


def test_sampled_params_always_valid():
    rng = SplitMix64(9)
    for _ in range(10):
        params = sample_params(rng)
        assert q_poly(params).degree == 6


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    bound=st.integers(min_value=0, max_value=40),
    max_denominator=st.integers(min_value=1, max_value=12),
)
def test_sample_scalar_matches_fraction_sampler(seed, bound, max_denominator):
    # the same canonical value from the same draws, and the generator left
    # in the same state, draw after draw
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for _ in range(5):
        value = sample_scalar(rng, bound, max_denominator)
        assert value == oracles.prng.sample_scalar(reference, bound, max_denominator)
        assert rng.state == reference.state


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    bound=st.integers(min_value=1, max_value=12),
    max_denominator=st.integers(min_value=1, max_value=5),
)
def test_interned_sampler_keeps_the_per_draw_stream(seed, bound, max_denominator):
    # small ranges repeat keys within a few draws, so values come from the
    # table as well as from a first build; each equals the reference value,
    # prints as it does and leaves the generator in the reference state
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for _ in range(8):
        value = sample_scalar(rng, bound, max_denominator)
        expected = oracles.prng.sample_scalar(reference, bound, max_denominator)
        assert value == expected and str(value) == str(expected)
        assert rng.state == reference.state


def test_a_long_scan_fills_the_table_with_the_sampled_keys_alone():
    # sample_params and sample_tangent draw from 19*3*19*3 keys, well inside
    # the table's bound
    prng._sampled.clear()
    assert cli.main(["scan", "--random", "10000", "--seed", "5"], io.StringIO()) == 0
    assert 0 < len(prng._sampled) <= 19 * 3 * 19 * 3 < prng.TABLE_BOUND


def test_the_table_stops_growing_at_its_bound():
    # past the bound a draw is built afresh, with the same value and stream
    prng._sampled.clear()
    rng, reference = SplitMix64(11), ReferenceSplitMix64(11)
    try:
        for _ in range(prng.TABLE_BOUND + 500):
            assert sample_scalar(rng, 10**6, 10**6) == oracles.prng.sample_scalar(reference, 10**6, 10**6)
        assert len(prng._sampled) == prng.TABLE_BOUND
        assert rng.state == reference.state
    finally:
        prng._sampled.clear()
