"""The ruling lines of the quadric cone as pairs of hyperplanes, whose
common zeros (oracles.curve.common_zeros_by_divisors) the closed-form
ruling divisors are checked against; and the function that a d0 witness
text names, whose divisor oracles.curve.divisor_of_function computes."""

from __future__ import annotations

from dataclasses import dataclass

from trigonal4.curve import CurveParams, Differential
from trigonal4.errors import DegenerateInput
from trigonal4.polynomials import UniPoly
from trigonal4.scalars import INFINITY, Scalar

from oracles.polynomials import RationalFunction


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


def witness_function(text: str) -> RationalFunction:
    """The function a witness text names: (A)/(B), A, or 1/(B), where each
    of A and B is x, x-c, x+c or x-(c) for a scalar literal c."""
    one = UniPoly((Scalar.one(),))
    if text.startswith("1/("):
        return RationalFunction(one, _linear(text[3:-1]))
    num, slash, den = text.partition(")/(")
    if slash:
        return RationalFunction(_linear(num[1:]), _linear(den[:-1]))
    return RationalFunction(_linear(text), one)


def _linear(text: str) -> UniPoly:
    """x - x0 from its display x, x-c, x+c or x-(c)."""
    if text == "x":
        x0 = Scalar.zero()
    elif text.startswith("x-(") and text.endswith(")"):
        x0 = Scalar.parse(text[3:-1])
    elif text.startswith("x-"):
        x0 = Scalar.parse(text[2:])
    elif text.startswith("x+"):
        x0 = -Scalar.parse(text[2:])
    else:
        raise DegenerateInput(f"not a linear factor: {text!r}")
    return UniPoly((-x0, Scalar.one()))
