"""The ruling lines of the quadric cone as pairs of hyperplanes, whose
common zeros (oracles.curve.common_zeros_by_divisors) the closed-form
ruling divisors are checked against."""

from __future__ import annotations

from dataclasses import dataclass

from trigonal4.curve import CurveParams, Differential
from trigonal4.errors import DegenerateInput
from trigonal4.scalars import INFINITY, Scalar


@dataclass(frozen=True)
class RulingLine:
    """A line of one of the two rulings, as the intersection of two
    hyperplanes pulled back to 1-forms through z_i -> w_i."""

    family: int
    t: object  # Scalar or INFINITY
    hyperplanes: tuple  # two Differentials


def ruling_line(params: CurveParams, t, family: int) -> RulingLine:
    """Hyperplane pairs: family 1 is {z2 + z1 = t(z3 - z1), z1 = t(z2 - z1)},
    family 2 is {z2 + z1 = t*z1, z3 - z1 = t(z2 - z1)}; at t = infinity the
    leading forms are taken."""
    zero, one = Scalar.zero(), Scalar.one()
    if family == 1:
        if t is INFINITY:  # z1 - z3, z1 - z2
            forms = (Differential(zero, (one, zero, -one)), Differential(zero, (one, -one, zero)))
        else:
            t = Scalar.of(t)
            forms = (Differential(zero, (one + t, one, -t)), Differential(zero, (one + t, -t, zero)))
    elif family == 2:
        if t is INFINITY:  # -z1, z1 - z2
            forms = (Differential(zero, (-one, zero, zero)), Differential(zero, (one, -one, zero)))
        else:
            t = Scalar.of(t)
            forms = (Differential(zero, (one - t, one, zero)), Differential(zero, (t - one, -t, one)))
    else:
        raise DegenerateInput("family must be 1 or 2")
    return RulingLine(family=family, t=t, hyperplanes=forms)
