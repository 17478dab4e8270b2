"""The covector of the cube-root family computed over Q(w)(c), as rational
functions of c, and descended to Q(w)(a) by substituting a = c**3; the
closed form that qz24.cube_family_report reads is checked against it."""

from __future__ import annotations

from trigonal4.errors import StructuralError
from trigonal4.polynomials import UniPoly
from trigonal4.scalars import Scalar

from oracles.polynomials import RationalFunction, x


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
    u = tuple(x().scale(zeta ** j) for j in range(3))  # u_j = c*w**j
    one = UniPoly((Scalar.one(),))
    # Q'(u_j) = (u_j**3 - 1) prod_{k != j} (u_j - u_k), over Q(w)[c]
    qprime_u = [(uj ** 3 + -one) * (uj + -u[j - 1]) * (uj + -u[j - 2]) for j, uj in enumerate(u)]
    covector = []
    for k in (1, 2, 3):
        total = RationalFunction.zero()
        for uj, qpj in zip(u, qprime_u):
            total = total + RationalFunction(uj ** (k - 1), (uj * uj).scale(3) * qpj)
        covector.append(_in_a(total))
    return tuple(covector)
