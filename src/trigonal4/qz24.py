"""Exact probe of the one-parameter cube-root locus u = (c, c*w, c*w**2).

On this locus the second factor of the branch polynomial collapses to
x**3 - a with a = c**3, giving the one-parameter family
y**3 = (x**3 - 1)(x**3 - a).  The probe computes the conic-criterion
covector of the family's own tangent direction exactly in the field
Q(w)(c) = Q(w)(a)[c]/(c**3 - a), as rational functions of c, and then
descends each entry to Q(w)(a) by substituting a = c**3.

The computed covector is (0, 1/(3a(a-1)), 0), which is OFF the vanishing
conic, while the cycle class is known to be locally constant along this
family; the report carries that tension as an explicit annotation and
asserts nothing beyond the computed value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput, StructuralError
from .polynomials import RationalFunction, UniPoly
from .scalars import Scalar


@dataclass(frozen=True)
class CubeFamilyReport:
    """Exact conic data of the cube-root one-parameter family."""

    covector: tuple  # three RationalFunctions of a
    conic_value: RationalFunction
    on_conic: bool
    annotation: str


ANNOTATION = (
    "tension: the cycle class is known to be locally constant along this "
    "one-parameter family, yet the family's tangent direction fails the "
    "conic criterion; only the exact computed value is asserted here"
)


def _in_a(f: RationalFunction) -> RationalFunction:
    """The rational function f(c) of Q(w)(c) as a rational function of
    a = c**3; raises when f genuinely involves c."""
    for poly in (f.numerator, f.denominator):
        if any(coeff for k, coeff in enumerate(poly.coefficients) if k % 3):
            raise StructuralError("element does not descend to the rational-function field Q(w)(a)")
    return RationalFunction(
        UniPoly(f.numerator.coefficients[::3]), UniPoly(f.denominator.coefficients[::3])
    )


def cube_family_covector() -> tuple:
    """The conic-criterion covector c(a) of the tangent direction of the
    cube-root family, as exact rational functions of a.

    The tangent has coordinates 1/(3 u_j**2) (the a-derivative of the
    parameters u_j = cube roots of a), and the branch polynomial restricts
    to (x**3 - 1)(x**3 - a)."""
    zeta = Scalar.zeta()
    u = tuple(UniPoly.x().scale(zeta ** j) for j in range(3))  # u_j = c*w**j
    one = UniPoly.constant(Scalar.one())
    # Q'(u_j) = (u_j**3 - 1) prod_{k != j} (u_j - u_k), over Q(w)[c]
    qprime_u = [(uj ** 3 - one) * (uj - u[j - 1]) * (uj - u[j - 2]) for j, uj in enumerate(u)]
    covector = []
    for k in (1, 2, 3):
        total = RationalFunction.zero()
        for uj, qpj in zip(u, qprime_u):
            total = total + RationalFunction(uj ** (k - 1), (uj * uj).scale(3) * qpj)
        covector.append(_in_a(total))
    return tuple(covector)


def cube_family_report(a_value: Scalar | None = None) -> CubeFamilyReport:
    """Full probe report; when ``a_value`` is given it must avoid 0 and the
    unit cubes, and it is checked before any computation."""
    if a_value is not None:
        a_value = Scalar.of(a_value)
        if not a_value or a_value == Scalar.one() or (a_value ** 3) == Scalar.one():
            raise DegenerateInput("the probe needs a outside {0} and the unit cubes")
    covector = cube_family_covector()
    conic_value = covector[0] * covector[2] - covector[1] * covector[1]
    return CubeFamilyReport(
        covector=covector,
        conic_value=conic_value,
        on_conic=not conic_value,
        annotation=ANNOTATION,
    )


def evaluate_at(f: RationalFunction, a_value: Scalar) -> Scalar:
    return f.evaluate(Scalar.of(a_value))
