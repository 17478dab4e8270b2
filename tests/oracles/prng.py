"""The reference sampler: ``sample_scalar`` as it was before it built the
canonical triple straight from its draws.  It draws a ``Fraction`` per part
and builds the Scalar from the pair (``fraction_scalar``), so the tests
check that the production sampler gives the same value and leaves the
generator in the same state.
"""

from __future__ import annotations

from fractions import Fraction

from trigonal4.prng import SplitMix64
from trigonal4.scalars import Scalar

from oracles.scalars import fraction_scalar


def sample_fraction(rng: SplitMix64, bound: int = 9, max_denominator: int = 4) -> Fraction:
    """numerator in [-bound, bound], denominator in [1, max_denominator]."""
    num = rng.integer(-bound, bound)
    den = rng.integer(1, max_denominator)
    return Fraction(num, den)


def sample_scalar(rng: SplitMix64, bound: int = 9, max_denominator: int = 4) -> Scalar:
    rational = sample_fraction(rng, bound, max_denominator)
    zeta = sample_fraction(rng, bound, max_denominator)
    return fraction_scalar(rational, zeta)
