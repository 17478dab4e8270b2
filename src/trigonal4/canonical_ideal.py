"""Geometry of the canonically embedded curve: the unique quadric, the
cubic of the canonical ideal, and the Schiffer test.

Both forms of the canonical ideal are closed forms.  On the affine chart
the canonical map is z = (Y, 1, x, x**2) with Y**3 = Q(x).  The quadric is
always z2**2 - z1*z3.  Writing Q = sum q_k x**k, the cubic is
z0**3 - sum_k q_k m_k, where m_0..m_6 = z1**3, z1**2 z2, z1 z2**2, z2**3,
z2**2 z3, z2 z3**2, z3**3 are the monomials that x**0..x**6 pull back from;
it pulls back to Y**3 - Q(x) = 0.  No m_k is divisible by z1*z3, and the
z0**3 term keeps the cubic off the multiples of the quadric, so this is the
unique normal form with leading coefficient 1.

Evaluation at sampled trigonal fibers (tests/oracles/canonical_ideal.py)
is the independent oracle the tests check both forms against.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .curve import CurveParams
from .errors import DegenerateInput
from .scalars import Scalar

# Degree-2 and degree-3 exponent tuples over (z0, z1, z2, z3), graded-lex
# descending with z0 > z1 > z2 > z3; this fixed order normalizes all forms.
QUADRIC_MONOMIALS = tuple(
    sorted(
        (m for m in itertools.product(range(3), repeat=4) if sum(m) == 2),
        reverse=True,
    )
)
CUBIC_MONOMIALS = tuple(
    sorted(
        (m for m in itertools.product(range(4), repeat=4) if sum(m) == 3),
        reverse=True,
    )
)

_QUADRIC = {(0, 0, 2, 0): Scalar.one(), (0, 1, 0, 1): -Scalar.one()}  # z2**2 - z1*z3
# m_k, the cubic monomial that x**k pulls back from under z = (Y, 1, x, x**2)
_CUBIC_X_POWERS = (
    (0, 3, 0, 0), (0, 2, 1, 0), (0, 1, 2, 0), (0, 0, 3, 0),
    (0, 0, 2, 1), (0, 0, 1, 2), (0, 0, 0, 3),
)

def monomial_label(exponents: tuple) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"z{i}")
        elif e > 1:
            parts.append(f"z{i}^{e}")
    return "*".join(parts) if parts else "1"


class MonomialForm:
    """A form stored as its coefficients over the fixed monomial order of its
    class (``monomials``)."""

    __slots__ = ("coefficients",)
    monomials = ()

    def __init__(self, coefficients: tuple):
        self.coefficients = coefficients  # aligned with monomials

    def evaluate(self, v) -> Scalar:
        v = tuple(Scalar.of(c) for c in v)
        acc = Scalar.zero()
        for m, c in zip(self.monomials, self.coefficients):
            if c:
                acc = acc + c * _monomial_value(v, m)
        return acc


class QuadricForm(MonomialForm):
    """A quadratic form over QUADRIC_MONOMIALS."""

    __slots__ = ()
    monomials = QUADRIC_MONOMIALS


class CubicForm(MonomialForm):
    """A cubic form over CUBIC_MONOMIALS, reduced so no monomial is divisible
    by the quadric's leading monomial z1*z3 and scaled so the graded-lex
    leading coefficient is 1."""

    __slots__ = ()
    monomials = CUBIC_MONOMIALS


def _monomial_value(v: tuple, exponents: tuple) -> Scalar:
    acc = Scalar.one()
    for coord, e in zip(v, exponents):
        for _ in range(e):
            acc = acc * coord
    return acc


# ---------------------------------------------------------------------------
# The canonical ideal
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def sym2_relation(params: CurveParams) -> QuadricForm:
    """The unique quadric through the canonical curve, z2**2 - z1*z3 for
    every parameter point, normalized so the z2**2 coefficient is 1."""
    return QuadricForm(tuple(_QUADRIC.get(m, Scalar.zero()) for m in QUADRIC_MONOMIALS))


@lru_cache(maxsize=32)
def canonical_cubic(params: CurveParams) -> CubicForm:
    """The new cubic of the canonical ideal, z0**3 - sum_k q_k m_k: no
    monomial divisible by z1*z3, leading coefficient 1."""
    coefficients = {(3, 0, 0, 0): Scalar.one()}
    for m, q in zip(_CUBIC_X_POWERS, params.q_coefficients):
        coefficients[m] = -q
    return CubicForm(tuple(coefficients.get(m, Scalar.zero()) for m in CUBIC_MONOMIALS))


def schiffer_test(params: CurveParams, v) -> bool:
    """Whether the rank-1 direction v v^T is the square image of an actual
    curve point, decided by canonical-ideal membership: both the quadric and
    the cubic must vanish at v."""
    v = tuple(Scalar.of(c) for c in v)
    if not any(v):
        raise DegenerateInput("zero vector is not a projective point")
    if sym2_relation(params).evaluate(v):
        return False
    return not canonical_cubic(params).evaluate(v)
