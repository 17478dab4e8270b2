"""Deterministic 64-bit PRNG (splitmix64) and the derived exact samplers.

splitmix64 advances a 64-bit counter by 0x9E3779B97F4A7C15 and hashes it
with two xor-multiply rounds (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, shifts 30/27/31).  The algorithm is fixed here so that
seeded runs are reproducible across machines and implementations; all
derived samplers consume draws in a documented order.  SplitMix64.draws
holds the only copy of the step, and computes its n outputs in one pass
over one Python int: output i sits in the 128-bit lane at bit 128*i, each
lane masked to 64 bits before every multiply.  A 64-bit lane times a
64-bit constant stays below 2**128, so no lane carries into the next, and
a right shift leaks only into the cleared gap above bit 64 of the lane
below.  A sampled scalar takes four draws and reduces them as
SplitMix64.integer does; the samplers draw every scalar of a candidate
point or direction in one call.  Its value comes from a table keyed by the
four reduced integers and filled on first draw, up to TABLE_BOUND entries:
the Scalar there was built from them with one gcd and no intermediate
fraction, and it keeps its literal once printed.  sample_params and
sample_tangent draw from 19*3*19*3 = 3249 keys, so a long scan builds and
formats each sampled value once.
"""

from __future__ import annotations

import struct

from .curve import CurveParams, validate_params
from .deformation import TangentVector
from .errors import DegenerateInput, InvalidParameters
from .scalars import Scalar, ratio_scalar

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# The most lanes one pass of SplitMix64.draws packs; longer calls take
# several passes, so _lanes holds at most this many entries.
LANE_BOUND = 64
# The constants of an n-lane pass, built on its first use: REP (a 1 in each
# lane), LANES (the 64-bit mask of each lane), STEPS ((i + 1) * gamma mod
# 2**64 in lane i) and the unpacker of the lanes' low 64 bits.
_lanes: dict = {}

# The sampled-scalar table: the Scalar of each (p, q, r, s) drawn, added on
# its first draw while the table holds fewer than TABLE_BOUND entries.
# sample_params and sample_tangent draw from 3249 keys, well inside it.
TABLE_BOUND = 8192
_sampled: dict = {}


def _lane_constants(n: int) -> tuple:
    constants = _lanes.get(n)
    if constants is None:
        rep = sum(1 << 128 * i for i in range(n))
        steps = sum(((i + 1) * _GAMMA & _MASK) << 128 * i for i in range(n))
        constants = _lanes[n] = rep, rep * _MASK, steps, struct.Struct("<" + "Q8x" * n).unpack
    return constants


class SplitMix64:
    """The splitmix64 sequence from a 64-bit seed, 0 <= seed < 2**64."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK:
            raise DegenerateInput("a splitmix64 seed must lie in 0..2**64-1")
        self.state = seed

    def draws(self, n: int) -> list:
        """The next n outputs, in order, up to LANE_BOUND of them a pass."""
        out = []
        while n > 0:
            k = min(n, LANE_BOUND)
            rep, lanes, steps, unpack = _lane_constants(k)
            z = (self.state * rep + steps) & lanes
            z = ((z ^ z >> 30) & lanes) * 0xBF58476D1CE4E5B9 & lanes
            z = ((z ^ z >> 27) & lanes) * 0x94D049BB133111EB & lanes
            out += unpack((z ^ z >> 31).to_bytes(16 * k, "little"))
            self.state = (self.state + k * _GAMMA) & _MASK
            n -= k
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


def _sample(rng: SplitMix64, count: int, bound: int, max_denominator: int) -> list:
    """count sampled scalars from 4 * count draws taken in one call, each
    group of four read as sample_scalar reads its draws."""
    if bound < 0 or max_denominator <= 0:
        raise ValueError("bound must be >= 0 and max_denominator >= 1")
    span = 2 * bound + 1
    values = []
    group = iter(rng.draws(4 * count))
    for p, q, r, s in zip(group, group, group, group):
        key = (p % span - bound, q % max_denominator + 1, r % span - bound, s % max_denominator + 1)
        value = _sampled.get(key)
        if value is None:
            value = ratio_scalar(*key)
            if len(_sampled) < TABLE_BOUND:
                _sampled[key] = value
        values.append(value)
    return values


def sample_scalar(rng: SplitMix64, bound: int = 9, max_denominator: int = 4) -> Scalar:
    """p/q + (r/s)*w, the numerators in [-bound, bound] and the denominators
    in [1, max_denominator], drawn in the order p, q, r, s: four
    rng.integer draws, taken in one call.  The value comes from the
    sampled-scalar table."""
    return _sample(rng, 1, bound, max_denominator)[0]


def sample_params(rng: SplitMix64) -> CurveParams:
    """Rejection-sample a valid base point: each candidate is three sampled
    scalars from one draws(12), drawn completely before validation."""
    while True:
        try:
            return validate_params(*_sample(rng, 3, 9, 3))
        except InvalidParameters:
            continue


def sample_tangent(rng: SplitMix64) -> TangentVector:
    """Rejection-sample a nonzero direction, a candidate from one draws(12)."""
    while True:
        xi = TangentVector(_sample(rng, 3, 9, 3))
        if not xi.is_zero():
            return xi
