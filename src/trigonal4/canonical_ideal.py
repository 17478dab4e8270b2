"""Geometry of the canonically embedded curve: the unique quadric, the
cubic of the canonical ideal, and their values at a point (Schiffer test).

Both forms of the canonical ideal are closed forms.  On the affine chart
the canonical map is z = (Y, 1, x, x**2) with Y**3 = Q(x).  The quadric is
always z2**2 - z1*z3.  Writing Q = sum q_k x**k, the cubic is
z0**3 - sum_k q_k m_k, where m_0..m_6 = z1**3, z1**2 z2, z1 z2**2, z2**3,
z2**2 z3, z2 z3**2, z3**3 are the monomials that x**0..x**6 pull back from;
it pulls back to Y**3 - Q(x) = 0.  No m_k is divisible by z1*z3, and the
z0**3 term keeps the cubic off the multiples of the quadric, so this is the
unique normal form with leading coefficient 1.

A form is the terms it prints: its nonzero (exponents, coefficient) pairs,
graded-lex descending with z0 > z1 > z2 > z3, which puts z1*z3 before
z2**2 and z0**3 before m_0..m_6.  Its value at a point composes the terms
on unreduced triples and reduces once.

Evaluation at sampled trigonal fibers (tests/oracles/canonical_ideal.py)
is the independent oracle the tests check both forms against.
"""

from __future__ import annotations

from functools import lru_cache

from .curve import CurveParams
from .errors import DegenerateInput
from .scalars import Scalar, _add3, _make, _mul3, _operand, _triple

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
    """A form over (z0, z1, z2, z3) as its terms: the nonzero
    (exponents, coefficient) pairs in graded-lex descending order."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms

    def evaluate(self, v) -> Scalar:
        """The value at v (a Scalar or an int per coordinate), reduced once."""
        v = [_operand(c) for c in v]
        if None in v:
            raise TypeError("a form takes Scalar or int coordinates")
        acc = (0, 0, 1)
        for exponents, c in self.terms:
            term = _triple(c)
            for coord, e in zip(v, exponents):
                for _ in range(e):
                    term = _mul3(term, coord)
            acc = _add3(acc, term)
        return _make(*acc)


@lru_cache(maxsize=32)
def sym2_relation(params: CurveParams) -> MonomialForm:
    """The unique quadric through the canonical curve, z2**2 - z1*z3 for
    every parameter point, normalized so the z2**2 coefficient is 1."""
    return MonomialForm((((0, 1, 0, 1), -Scalar.one()), ((0, 0, 2, 0), Scalar.one())))


@lru_cache(maxsize=32)
def canonical_cubic(params: CurveParams) -> MonomialForm:
    """The new cubic of the canonical ideal, z0**3 - sum_k q_k m_k, without
    the terms whose q_k is 0: no monomial divisible by z1*z3, leading
    coefficient 1."""
    terms = [((3, 0, 0, 0), Scalar.one())]
    terms += [(m, -q) for m, q in zip(_CUBIC_X_POWERS, params.q_coefficients) if q]
    return MonomialForm(tuple(terms))


def schiffer_values(params: CurveParams, v) -> tuple:
    """The quadric and the cubic at the projective point v.  The rank-1
    direction v v^T is the square image of an actual curve point (the
    Schiffer test) exactly when both vanish, by canonical-ideal membership."""
    v = tuple(Scalar.of(c) for c in v)
    if not any(v):
        raise DegenerateInput("zero vector is not a projective point")
    return sym2_relation(params).evaluate(v), canonical_cubic(params).evaluate(v)
