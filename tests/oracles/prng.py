"""The reference generator and samplers.

``ReferenceSplitMix64`` steps splitmix64 one output at a time, as
``SplitMix64.draws`` did before it packed its outputs into the lanes of
one integer, so the tests check the lane-packed pass against it output by
output and state by state.  The samplers draw from it: ``sample_scalar``
draws a ``Fraction`` per part with ``integer`` and builds the Scalar from
the pair (``fraction_scalar``), as the production sampler did before it
built the canonical triple straight from its draws, and ``sample_params``
and ``sample_tangent`` draw a candidate's three scalars one at a time.
"""

from __future__ import annotations

from fractions import Fraction

from trigonal4.curve import CurveParams, validate_params
from trigonal4.deformation import TangentVector
from trigonal4.errors import InvalidParameters
from trigonal4.scalars import Scalar

from oracles.scalars import fraction_scalar

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


class ReferenceSplitMix64:
    """splitmix64 from a seed in 0..2**64-1, one step per output."""

    def __init__(self, seed: int):
        assert 0 <= seed <= MASK
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK
        z = ((self.state ^ (self.state >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def draws(self, n: int) -> list:
        return [self.next_u64() for _ in range(n)]

    def integer(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


def sample_fraction(rng: ReferenceSplitMix64, bound: int = 9, max_denominator: int = 4) -> Fraction:
    """numerator in [-bound, bound], denominator in [1, max_denominator]."""
    num = rng.integer(-bound, bound)
    den = rng.integer(1, max_denominator)
    return Fraction(num, den)


def sample_scalar(rng: ReferenceSplitMix64, bound: int = 9, max_denominator: int = 4) -> Scalar:
    rational = sample_fraction(rng, bound, max_denominator)
    zeta = sample_fraction(rng, bound, max_denominator)
    return fraction_scalar(rational, zeta)


def sample_params(rng: ReferenceSplitMix64) -> CurveParams:
    while True:
        candidates = tuple(sample_scalar(rng, 9, 3) for _ in range(3))
        try:
            return validate_params(*candidates)
        except InvalidParameters:
            continue


def sample_tangent(rng: ReferenceSplitMix64) -> TangentVector:
    while True:
        xi = TangentVector(tuple(sample_scalar(rng, 9, 3) for _ in range(3)))
        if not xi.is_zero():
            return xi
