"""Ruling lines of the quadric cone, their intersections with the canonical
curve, and explicit rational-triviality witnesses.

Both line families cut the canonical curve in a full trigonal fiber, the
fiber over the closed-form parameter of the line (ruling_parameter_x); the
common zeros of the line's two hyperplane forms by divisor minimum
(tests/oracles/rulings.py) are the cross-check the tests run.  With the
parameters tied by 1/t1 + 1 = t2 - 1 the two fibers coincide, making the
difference cycle trivially zero.  Two fibers are equal exactly when their
parameters are, so d0_cycle compares parameters, not divisors, and reads
both fibers off the parameters it compared; for untied
parameters the difference of fibers is exhibited as the divisor of an
explicit rational function of x, written as text.
"""

from __future__ import annotations

from .curve import CurveParams, Divisor, trigonal_fiber
from .errors import DegenerateInput
from .scalars import INFINITY, Scalar


class D0Cycle:
    """Difference of the two ruling sections: plus - minus, with a witness
    ("trivially equal" or a rational function whose divisor is plus-minus)."""

    __slots__ = ("t1", "t2", "plus", "minus", "witness")

    def __init__(self, t1, t2, plus: Divisor, minus: Divisor, witness: str):
        self.t1, self.t2 = t1, t2
        self.plus, self.minus = plus, minus
        self.witness = witness


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


def relation_t2(t1):
    """The family-2 parameter tied to t1 by 1/t1 + 1 = t2 - 1: the family-1
    fiber parameter plus one."""
    return _tied_t2(ruling_parameter_x(t1, 1))


def _tied_t2(x1):
    """t2 = x1 + 1 for the family-1 fiber parameter x1."""
    return x1 if x1 is INFINITY else x1 + Scalar.one()


def principal_witness(x1, x2) -> str:
    """The text of a function whose divisor is fiber(x1) - fiber(x2):
    (x - x1)/(x - x2), with the usual conventions at infinity.  Its divisor
    is not computed: div(x - a) = fiber(a) - fiber(inf), and the tests read
    the function back from the text and check that divisor_of_function
    (tests/oracles/curve.py) agrees."""
    if x1 == x2:  # INFINITY equals only itself
        raise DegenerateInput("witness needs two distinct fiber parameters")
    if x1 is INFINITY:
        return f"1/({_linear_str(x2)})"
    if x2 is INFINITY:
        return _linear_str(x1)
    return f"({_linear_str(x1)})/({_linear_str(x2)})"


def _linear_str(x0) -> str:
    """Canonical display of x - x0."""
    if not x0:
        return "x"
    text = str(x0)
    if "+" in text[1:] or "*" in text or "/" in text:
        return f"x-({text})"
    return f"x+{text[1:]}" if text.startswith("-") else f"x-{text}"


def d0_cycle(params: CurveParams, t1, t2=None) -> D0Cycle:
    """The difference of ruling sections for tied parameters (default) or an
    explicitly overridden pair; tied parameters always give equal divisors."""
    x1 = ruling_parameter_x(t1, 1)
    if t2 is None:
        t2 = _tied_t2(x1)
    x2 = ruling_parameter_x(t2, 2)
    witness = "trivially equal" if x1 == x2 else principal_witness(x1, x2)
    plus, minus = trigonal_fiber(params, x1), trigonal_fiber(params, x2)
    return D0Cycle(t1=t1, t2=t2, plus=plus, minus=minus, witness=witness)
