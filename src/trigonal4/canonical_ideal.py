"""Geometry of the canonically embedded curve: the unique quadric, the
cubic of the canonical ideal, symmetric-tensor ranks, and the Schiffer test.

Both forms of the canonical ideal are closed forms.  On the affine chart
the canonical map is z = (Y, 1, x, x**2) with Y**3 = Q(x).  The quadric is
always z2**2 - z1*z3.  Writing Q = sum q_k x**k, the cubic is
z0**3 - sum_k q_k m_k, where m_0..m_6 = z1**3, z1**2 z2, z1 z2**2, z2**3,
z2**2 z3, z2 z3**2, z3**3 are the monomials that x**0..x**6 pull back from;
it pulls back to Y**3 - Q(x) = 0.  No m_k is divisible by z1*z3, and the
z0**3 term keeps the cubic off the multiples of the quadric, so this is the
unique normal form with leading coefficient 1.

Evaluation at sampled trigonal fibers (``_evaluation_kernel``) is the
independent oracle the tests check both forms against; nothing in the
production path uses it.  A fiber over x0 evaluates all three conjugate
points at once inside Q(w)[Y]/(Y**3 - Q(x0)), and 12 fibers (36 points) or
25 fibers (75 points) suffice for quadrics and cubics, since a hypersurface
of degree d not containing the degree-6 curve meets it in at most 6d points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .curve import CurveParams
from .errors import DegenerateInput, StructuralError
from .linalg import Matrix
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

SYM2_FIBERS = 12
SYM3_FIBERS = 25


def monomial_label(exponents: tuple) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"z{i}")
        elif e > 1:
            parts.append(f"z{i}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class QuadricForm:
    """A quadratic form, stored monomial -> coefficient over the fixed order."""

    coefficients: tuple  # aligned with QUADRIC_MONOMIALS

    def coefficient(self, exponents: tuple) -> Scalar:
        return self.coefficients[QUADRIC_MONOMIALS.index(exponents)]

    def evaluate(self, v) -> Scalar:
        v = tuple(Scalar.of(c) for c in v)
        acc = Scalar.zero()
        for m, c in zip(QUADRIC_MONOMIALS, self.coefficients):
            if c:
                acc = acc + c * _monomial_value(v, m)
        return acc

    def matrix(self) -> Matrix:
        """The symmetric 4x4 Gram matrix (off-diagonal entries halved)."""
        rows = [[Scalar.zero()] * 4 for _ in range(4)]
        for m, c in zip(QUADRIC_MONOMIALS, self.coefficients):
            support = [i for i, e in enumerate(m) for _ in range(e)]
            i, j = support
            if i == j:
                rows[i][i] = rows[i][i] + c
            else:
                half = c / 2
                rows[i][j] = rows[i][j] + half
                rows[j][i] = rows[j][i] + half
        return Matrix.from_rows(rows)

    def __str__(self):
        return _form_str(QUADRIC_MONOMIALS, self.coefficients)


@dataclass(frozen=True)
class CubicForm:
    """A cubic form over the fixed monomial order, reduced so no monomial is
    divisible by the quadric's leading monomial z1*z3 and scaled so the
    graded-lex leading coefficient is 1."""

    coefficients: tuple  # aligned with CUBIC_MONOMIALS

    def coefficient(self, exponents: tuple) -> Scalar:
        return self.coefficients[CUBIC_MONOMIALS.index(exponents)]

    def evaluate(self, v) -> Scalar:
        v = tuple(Scalar.of(c) for c in v)
        acc = Scalar.zero()
        for m, c in zip(CUBIC_MONOMIALS, self.coefficients):
            if c:
                acc = acc + c * _monomial_value(v, m)
        return acc

    def __str__(self):
        return _form_str(CUBIC_MONOMIALS, self.coefficients)


@dataclass(frozen=True)
class SymTensor:
    """A symmetric 4x4 tensor in the dual canonical coordinates."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(tuple(Scalar.of(e) for e in row) for row in self.entries)
        if len(entries) != 4 or any(len(r) != 4 for r in entries):
            raise DegenerateInput("a symmetric tensor here is a 4x4 array")
        for i in range(4):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise DegenerateInput("tensor is not symmetric")
        object.__setattr__(self, "entries", entries)

    def matrix(self) -> Matrix:
        return Matrix(self.entries)


def _form_str(monomials, coefficients) -> str:
    parts = []
    for m, c in zip(monomials, coefficients):
        if not c:
            continue
        text = str(c)
        label = monomial_label(m)
        if text == "1":
            parts.append(label)
        elif text == "-1":
            parts.append(f"-{label}")
        else:
            if "+" in text[1:] or "*" in text:
                text = f"({text})"
            parts.append(f"{text}*{label}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def _monomial_value(v: tuple, exponents: tuple) -> Scalar:
    acc = Scalar.one()
    for coord, e in zip(v, exponents):
        for _ in range(e):
            acc = acc * coord
    return acc


# ---------------------------------------------------------------------------
# Fiber evaluation (the sampled cross-check)
# ---------------------------------------------------------------------------


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
    q0 = params.q_at(x0)
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
    return Matrix.from_rows(rows).kernel_basis()


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
    for k, m in enumerate(_CUBIC_X_POWERS):
        coefficients[m] = -params.q_poly.coefficient(k)
    return CubicForm(tuple(coefficients.get(m, Scalar.zero()) for m in CUBIC_MONOMIALS))


def noether_rank(tensor: SymTensor) -> int:
    """Rank of a first-order deformation as a symmetric tensor: 0 through 4."""
    return tensor.matrix().rank()


def veronese(v) -> SymTensor:
    """The rank-1 symmetric tensor v v^T of a projective point."""
    v = tuple(Scalar.of(c) for c in v)
    if len(v) != 4:
        raise DegenerateInput("expected a projective 4-tuple")
    if not any(v):
        raise DegenerateInput("zero vector is not a projective point")
    return SymTensor(tuple(tuple(a * b for b in v) for a in v))


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
