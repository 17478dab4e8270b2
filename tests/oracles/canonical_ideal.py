"""Canonical-ideal oracles: evaluation at sampled trigonal fibers, the
Gram matrix of a quadric, and a form's coefficient at a monomial.

A fiber over x0 evaluates all three conjugate points at once inside
Q(w)[Y]/(Y**3 - Q(x0)), and 12 fibers (36 points) or 25 fibers (75 points)
suffice for quadrics and cubics, since a hypersurface of degree d not
containing the degree-6 curve meets it in at most 6d points."""

from __future__ import annotations

import itertools

from trigonal4.canonical_ideal import QUADRIC_MONOMIALS, MonomialForm, QuadricForm, _monomial_value
from trigonal4.curve import CurveParams
from trigonal4.errors import DegenerateInput, StructuralError
from trigonal4.linalg import Matrix
from trigonal4.scalars import Scalar

from oracles.polynomials import q_poly

SYM2_FIBERS = 12
SYM3_FIBERS = 25


def coefficient(form: MonomialForm, exponents: tuple) -> Scalar:
    return form.coefficients[form.monomials.index(exponents)]


def quadric_matrix(form: QuadricForm) -> Matrix:
    """The symmetric 4x4 Gram matrix (off-diagonal entries halved)."""
    rows = [[Scalar.zero()] * 4 for _ in range(4)]
    for m, c in zip(QUADRIC_MONOMIALS, form.coefficients):
        support = [i for i, e in enumerate(m) for _ in range(e)]
        i, j = support
        if i == j:
            rows[i][i] = rows[i][i] + c
        else:
            half = c / 2
            rows[i][j] = rows[i][j] + half
            rows[j][i] = rows[j][i] + half
    return Matrix(rows)


def sample_fiber_xs(params: CurveParams, count: int, skip: int = 0) -> list[Scalar]:
    """Deterministic non-branch sample values 2, -2, 3, -3, ... ; ``skip``
    many valid values are discarded first, giving disjoint second samples."""
    xs: list[Scalar] = []
    seen = 0
    for n in itertools.count(2):
        for sign in (1, -1):
            x0 = Scalar.of(sign * n)
            if params.is_branch_x(x0):
                continue
            seen += 1
            if seen <= skip:
                continue
            xs.append(x0)
            if len(xs) == count:
                return xs
    raise StructuralError("unreachable")


def _monomial_fiber_rows(params: CurveParams, monomials, x0: Scalar) -> list[list[Scalar]]:
    """Three exact condition rows (the Y-components) for vanishing of a form
    at all three fiber points over x0, where z = (Y, 1, x0, x0**2) and
    Y**3 = Q(x0)."""
    q0 = q_poly(params).evaluate(x0)
    if not q0:
        raise DegenerateInput("fiber evaluation needs a non-branch x")
    rows = [[Scalar.zero()] * len(monomials) for _ in range(3)]
    for col, m in enumerate(monomials):
        e0 = m[0]
        base = _monomial_value((Scalar.one(), x0, x0 * x0), (m[1], m[2], m[3]))
        value = base * q0 ** (e0 // 3)
        rows[e0 % 3][col] = value
    return rows


def _evaluation_kernel(params: CurveParams, monomials, fibers: int, skip: int) -> list[tuple]:
    rows: list[list[Scalar]] = []
    for x0 in sample_fiber_xs(params, fibers, skip):
        rows.extend(_monomial_fiber_rows(params, monomials, x0))
    return Matrix(rows).kernel_basis()
