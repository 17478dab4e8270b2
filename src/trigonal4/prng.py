"""Deterministic 64-bit PRNG (splitmix64) and the derived exact samplers.

splitmix64 advances a 64-bit counter by 0x9E3779B97F4A7C15 and hashes it
with two xor-multiply rounds (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, shifts 30/27/31).  The algorithm is fixed here so that
seeded runs are reproducible across machines and implementations; all
derived samplers consume draws in a documented order.  A sampled scalar
goes from its integer draws straight to the canonical triple, with one gcd
and no intermediate fraction.
"""

from __future__ import annotations

from .curve import CurveParams, validate_params
from .deformation import TangentVector
from .errors import DegenerateInput, InvalidParameters
from .scalars import Scalar, ratio_scalar

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 sequence from a 64-bit seed, 0 <= seed < 2**64."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK:
            raise DegenerateInput("a splitmix64 seed must lie in 0..2**64-1")
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound) by modular reduction (bound << 2**64,
        so the bias is negligible and reproducibility is what matters)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def integer(self, lo: int, hi: int) -> int:
        """Uniform draw in [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def sample_scalar(rng: SplitMix64, bound: int = 9, max_denominator: int = 4) -> Scalar:
    """p/q + (r/s)*w, the numerators in [-bound, bound] and the denominators
    in [1, max_denominator], drawn in the order p, q, r, s."""
    p, q = rng.integer(-bound, bound), rng.integer(1, max_denominator)
    r, s = rng.integer(-bound, bound), rng.integer(1, max_denominator)
    return ratio_scalar(p, q, r, s)


def sample_params(rng: SplitMix64) -> CurveParams:
    """Rejection-sample a valid base point (coordinates drawn in a fixed
    order, each candidate drawn completely before validation)."""
    while True:
        candidates = tuple(sample_scalar(rng, 9, 3) for _ in range(3))
        try:
            return validate_params(*candidates)
        except InvalidParameters:
            continue


def sample_tangent(rng: SplitMix64) -> TangentVector:
    while True:
        xi = TangentVector(tuple(sample_scalar(rng, 9, 3) for _ in range(3)))
        if not xi.is_zero():
            return xi
