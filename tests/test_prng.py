import io

import hypothesis.strategies as st
from hypothesis import given

from trigonal4 import cli, prng
from trigonal4.prng import SplitMix64, sample_params, sample_scalar, sample_tangent

import oracles.prng
from oracles.polynomials import q_poly


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


def test_samplers_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [sample_scalar(a) for _ in range(5)] == [sample_scalar(b) for _ in range(5)]
    assert sample_params(a).u == sample_params(b).u
    assert sample_tangent(a).a == sample_tangent(b).a


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
    rng, reference = SplitMix64(seed), SplitMix64(seed)
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
    rng, reference = SplitMix64(seed), SplitMix64(seed)
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
    rng, reference = SplitMix64(11), SplitMix64(11)
    try:
        for _ in range(prng.TABLE_BOUND + 500):
            assert sample_scalar(rng, 10**6, 10**6) == oracles.prng.sample_scalar(reference, 10**6, 10**6)
        assert len(prng._sampled) == prng.TABLE_BOUND
        assert rng.state == reference.state
    finally:
        prng._sampled.clear()
