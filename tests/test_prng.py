import hypothesis.strategies as st
from hypothesis import given

from trigonal4.prng import SplitMix64, sample_params, sample_scalar, sample_tangent

import oracles.prng


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
        assert params.q_poly.degree == 6


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
