"""Ruling lines of the quadric cone, their intersections with the canonical
curve, and explicit rational-triviality witnesses.

Both line families cut the canonical curve in a full trigonal fiber, read
off the closed-form fiber parameter of the line (ruling_parameter_x); the
common zeros of the line's two hyperplane forms by divisor minimum
(tests/oracles/rulings.py) are the cross-check the tests run.  With the
parameters tied by 1/t1 + 1 = t2 - 1 the two fibers coincide, making the
difference cycle trivially zero.  Two fibers are equal exactly when their
parameters are, so d0_cycle compares parameters, not divisors; for untied
parameters the difference of fibers is exhibited as the divisor of an
explicit rational function of x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import CurveParams, Divisor, trigonal_fiber
from .errors import DegenerateInput
from .polynomials import RationalFunction, UniPoly
from .scalars import INFINITY, Scalar


@dataclass(frozen=True)
class D0Cycle:
    """Difference of the two ruling sections: plus - minus, with a witness
    ("trivially equal" or a rational function whose divisor is plus-minus)."""

    t1: object
    t2: object
    plus: Divisor
    minus: Divisor
    witness: str


def ruling_parameter_x(t, family: int):
    """The x-coordinate of the fiber a ruling line cuts out: 1/t + 1 for
    family 1 and t - 1 for family 2, with projective-line conventions."""
    if family == 1:
        if t is INFINITY:
            return Scalar.one()
        t = Scalar.of(t)
        if not t:
            return INFINITY
        return t.inverse() + Scalar.one()
    if family == 2:
        if t is INFINITY:
            return INFINITY
        return Scalar.of(t) - Scalar.one()
    raise DegenerateInput("family must be 1 or 2")


def ruling_divisor(params: CurveParams, t, family: int) -> Divisor:
    """Intersection divisor of a ruling line with the canonical curve: the
    trigonal fiber over the line's fiber parameter."""
    return trigonal_fiber(params, ruling_parameter_x(t, family))


def relation_t2(t1):
    """The family-2 parameter tied to t1 by 1/t1 + 1 = t2 - 1."""
    if t1 is INFINITY:
        return Scalar.of(2)
    t1 = Scalar.of(t1)
    if not t1:
        return INFINITY
    return t1.inverse() + Scalar.of(2)


def principal_witness(params: CurveParams, x1, x2) -> tuple[RationalFunction, str]:
    """A function whose divisor is fiber(x1) - fiber(x2); (x - x1)/(x - x2)
    with the usual conventions at infinity.  Its divisor is not computed:
    div(x - a) = fiber(a) - fiber(inf), and the tests check that
    divisor_of_function (tests/oracles/curve.py) agrees."""
    if (x1 is INFINITY and x2 is INFINITY) or (x1 is not INFINITY and x2 is not INFINITY and Scalar.of(x1) == Scalar.of(x2)):
        raise DegenerateInput("witness needs two distinct fiber parameters")
    one = UniPoly.from_scalars((1,))
    if x1 is INFINITY:
        denom = UniPoly((-Scalar.of(x2), Scalar.one()))
        func = RationalFunction(one, denom)
        text = f"1/({_linear_str(x2)})"
    elif x2 is INFINITY:
        numer = UniPoly((-Scalar.of(x1), Scalar.one()))
        func = RationalFunction(numer, one)
        text = _linear_str(x1)
    else:
        numer = UniPoly((-Scalar.of(x1), Scalar.one()))
        denom = UniPoly((-Scalar.of(x2), Scalar.one()))
        func = RationalFunction(numer, denom)
        text = f"({_linear_str(x1)})/({_linear_str(x2)})"
    return func, text


def _linear_str(x0) -> str:
    """Canonical display of x - x0."""
    x0 = Scalar.of(x0)
    if not x0:
        return "x"
    text = str(x0)
    if "+" in text[1:] or "*" in text or "/" in text:
        return f"x-({text})"
    return f"x+{text[1:]}" if text.startswith("-") else f"x-{text}"


def d0_cycle(params: CurveParams, t1, t2=None) -> D0Cycle:
    """The difference of ruling sections for tied parameters (default) or an
    explicitly overridden pair; tied parameters always give equal divisors."""
    if t2 is None:
        t2 = relation_t2(t1)
    x1, x2 = ruling_parameter_x(t1, 1), ruling_parameter_x(t2, 2)
    witness = "trivially equal" if x1 == x2 else principal_witness(params, x1, x2)[1]
    plus, minus = ruling_divisor(params, t1, 1), ruling_divisor(params, t2, 2)
    return D0Cycle(t1=t1, t2=t2, plus=plus, minus=minus, witness=witness)
