"""Deterministic 64-bit PRNG (splitmix64) and the derived exact samplers.

splitmix64 advances a 64-bit counter by 0x9E3779B97F4A7C15 and hashes it
with two xor-multiply rounds (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, shifts 30/27/31).  The algorithm is fixed here so that
seeded runs are reproducible across machines and implementations; all
derived samplers consume draws in a documented order.  SplitMix64.draws
holds the only copy of the step and returns n outputs in one loop.  A
sampled scalar takes its four draws in one call and reduces them as
SplitMix64.integer does.  Its value comes from a table keyed by the four
reduced integers and filled on first draw, up to TABLE_BOUND entries: the
Scalar there was built from them with one gcd and no intermediate
fraction, and it keeps its literal once printed.  sample_params and
sample_tangent draw from 19*3*19*3 = 3249 keys, so a long scan builds and
formats each sampled value once.
"""

from __future__ import annotations

from .curve import CurveParams, validate_params
from .deformation import TangentVector
from .errors import DegenerateInput, InvalidParameters
from .scalars import Scalar, ratio_scalar

_MASK = (1 << 64) - 1

# The sampled-scalar table: the Scalar of each (p, q, r, s) drawn, added on
# its first draw while the table holds fewer than TABLE_BOUND entries.
# sample_params and sample_tangent draw from 3249 keys, well inside it.
TABLE_BOUND = 8192
_sampled: dict = {}


class SplitMix64:
    """The splitmix64 sequence from a 64-bit seed, 0 <= seed < 2**64."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK:
            raise DegenerateInput("a splitmix64 seed must lie in 0..2**64-1")
        self.state = seed

    def draws(self, n: int) -> list:
        """The next n outputs, in order."""
        state = self.state
        out = []
        for _ in range(n):
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            out.append(z ^ (z >> 31))
        self.state = state
        return out

    def next_u64(self) -> int:
        return self.draws(1)[0]

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
    in [1, max_denominator], drawn in the order p, q, r, s: four
    rng.integer draws, taken in one call.  The value comes from the
    sampled-scalar table."""
    if bound < 0 or max_denominator <= 0:
        raise ValueError("bound must be positive")
    p, q, r, s = rng.draws(4)
    span = 2 * bound + 1
    key = (p % span - bound, q % max_denominator + 1, r % span - bound, s % max_denominator + 1)
    value = _sampled.get(key)
    if value is None:
        value = ratio_scalar(*key)
        if len(_sampled) < TABLE_BOUND:
            _sampled[key] = value
    return value


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
