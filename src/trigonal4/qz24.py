"""Exact probe of the one-parameter cube-root locus u = (c, c*w, c*w**2).

On this locus the second factor of the branch polynomial collapses to
x**3 - a with a = c**3, giving the one-parameter family
y**3 = (x**3 - 1)(x**3 - a).  The conic-criterion covector of the family's
own tangent direction is read off its closed form
c_k = sum_j a_j u_j**(k-1) / Q'(u_j):

- the tangent is a_j = du_j/da = 1/(3 u_j**2), since u_j**3 = a;
- Q'(u_j) = (u_j**3 - 1) * 3 u_j**2 = 3 u_j**2 (a - 1);
- so c_k = sum_j u_j**(k-5) / (9(a - 1)), and the power sums of the cube
  roots of a vanish unless 3 divides the exponent: sum_j u_j**-3 = 3/a,
  and the sums for k = 1, 3 are 0.

The covector is therefore (0, 1/(3a(a-1)), 0), and its conic value
X*Z - Y**2 is -1/(9a**2(a-1)**2): OFF the vanishing conic, while the cycle
class is known to be locally constant along this family.  The qz24
command prints that tension as the explicit ANNOTATION, reads the variant
off the value's numerator, and asserts nothing beyond the value.
tests/oracles/qz24.py computes the covector over Q(w)(c) and
descends it to Q(w)(a) as the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput
from .polynomials import UniPoly
from .scalars import Scalar


@dataclass(frozen=True)
class CubeFamilyReport:
    """Exact conic data of the cube-root one-parameter family; each value
    is a (numerator, denominator) pair of UniPolys in a."""

    covector: tuple
    conic_value: tuple


ANNOTATION = (
    "tension: the cycle class is known to be locally constant along this "
    "one-parameter family, yet the family's tangent direction fails the "
    "conic criterion; only the exact computed value is asserted here"
)


def cube_family_report(a_value: Scalar | None = None) -> CubeFamilyReport:
    """Full probe report; when ``a_value`` is given it must avoid 0 and the
    unit cubes, and it is checked before anything else."""
    if a_value is not None:
        a_value = Scalar.of(a_value)
        if not a_value or a_value == Scalar.one() or (a_value ** 3) == Scalar.one():
            raise DegenerateInput("the probe needs a outside {0} and the unit cubes")
    one = Scalar.one()
    zero = (UniPoly(()), UniPoly((one,)))
    num, den = UniPoly((one / 3,)), UniPoly((Scalar.zero(), -one, one))  # 1/3 over a**2 - a
    conic_value = (-(num * num), den * den)  # c1 = c3 = 0, so X*Z - Y**2 = -c2**2
    return CubeFamilyReport(covector=(zero, (num, den), zero), conic_value=conic_value)


def evaluate_at(pair: tuple, a_value: Scalar) -> Scalar:
    a_value = Scalar.of(a_value)
    num, den = pair
    return num.evaluate(a_value) / den.evaluate(a_value)
