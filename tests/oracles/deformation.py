"""Deformation oracles: the moment matrix the closed forms of the base are
read from, the residue oracle on truncated series that the leading-order
deformation.residue_matrix is checked against, the 9-dimensional space of
quadratic differentials with its coordinates and products of 1-forms, and
the series support test that the on-conic lemma of trigonal4.deformation
is checked against."""

from __future__ import annotations

from trigonal4.curve import BranchPoint, CurveParams, Differential, Divisor, FiberPoint, FinitePoint, InfinityPoint
from trigonal4.deformation import OMEGA2_DIM, ORACLE_SIGN, TangentVector, pairing_covector
from trigonal4.errors import DegenerateInput, StructuralError, ZeroTangent
from trigonal4.linalg import Matrix
from trigonal4.scalars import Scalar
from trigonal4.series import LocalSeries

from oracles.curve import OMEGA, KDifferential, basis_factors, branch_chart, chart_at, fiber_frame
from oracles.linalg import identity
from oracles.series import inverse
from oracles.polynomials import RationalFunction, q_poly


def kernel_forms(cert) -> tuple:
    """The certificate's kernel basis, coefficient rows (b0, b1, b2, b3),
    as the 1-forms they are."""
    return tuple(Differential(row[0], row[1:]) for row in cert.kernel_basis)


def moment_matrix(params: CurveParams) -> Matrix:
    """Rows (1, u_j, u_j**2) / Q'(u_j), with Q' evaluated from its
    coefficients: the matrix that pairing_covector and cone_directions read
    in closed form.  Its determinant is V(u) / prod Q'(u_j) with V the
    Vandermonde of u, nonzero on the base."""
    rows = []
    for uj in params.u:
        inv = params.qprime_at(uj).inverse()
        rows.append((inv, uj * inv, uj * uj * inv))
    return Matrix(rows)


# The series residue oracle reads p = w_k / (x - u_j) through y**-1: its
# principal part and the y**-1 term that must vanish.  On a branch chart of
# truncation T, x - u_j starts at y**3 and is known below y**T, so
# 1/(x - u_j) starts at y**-3 with T - 3 known terms, below y**(T - 6); so
# is p, hence T = 6.  The w_l are then known through y**2, past the y**1
# that the residue against an antiderivative with a pole of order at most 2
# reads.
_RESIDUE_TRUNCATION = 6


def series_residue_matrix(params: CurveParams, j: int) -> tuple:
    """The pairings of deformation.residue_matrix, rows ``[l][k]`` in 6*pi*i
    units, from truncated Laurent series: expand the forms once on the
    branch chart over u_j, antidifferentiate the principal part of each
    derivative form once, and read each entry off the residue of a
    product."""
    x0 = params.u[j - 1]
    chart = branch_chart(params, x0, _RESIDUE_TRUNCATION)
    q_inv, x_powers = basis_factors(params, chart.x_series, 2)
    y = chart.y_series
    base = q_inv * chart.dx_series
    forms = [base * y * y]  # w0 = y**2 dx / Q
    for l in range(3):  # w_l = x**(l-1) y dx / Q
        forms.append(base * y * x_powers[l])
    x_minus_inv = inverse(chart.x_series - LocalSeries.constant(x0, chart.x_series.truncation))
    antiderivatives = []
    for k, form in enumerate(forms):
        # (d/du_j) w_k = m/(3 (x - u_j)) * w_k with m = 1 for k = 0, else 2
        m = 1 if k == 0 else 2
        p_series = form * x_minus_inv.scale(Scalar.of(m) / 3)
        if p_series.coefficient(-1):
            raise StructuralError("derivative form has a dy/y term; cannot antidifferentiate")
        principal = {n: c for n, c in p_series.coefficients.items() if n <= -2}
        antiderivatives.append(
            LocalSeries({n + 1: c / (n + 1) for n, c in principal.items()}, p_series.truncation + 1)
        )
    sign = Scalar.of(ORACLE_SIGN)
    return tuple(
        tuple(sign * (s_series * anti).coefficient(-1) / 3 for anti in antiderivatives) for s_series in forms
    )


# Coordinates on holomorphic quadratic differentials: (A(x), b, C(x)) with
#   q = (A(x)*Q + b*Q*y + C(x)*y**2) (dx)**2 / Q**2,
# deg A <= 2, deg C <= 4: 3 + 1 + 5 = 9 coordinates, ordered
# (A0, A1, A2, b, C0, C1, C2, C3, C4).  The basis x**k/Q, y/Q, x**k y**2/Q**2
# is fixed, so on any chart it is expanded from one 1/Q(x(s)) series and the
# powers of x(s) (basis_factors).

# The support conditions at a point of multiplicity m read each basis
# element below s**(m - 2*dx_valuation).  A branch chart of truncation T
# asks the most: 1/Q**2 starts at y**-6 and is known below y**(T - 9), so
# x**k y**2/Q**2 below y**(T - 7), and the reads stop below y**(m - 4):
# T = m + 3.  Infinity needs T = m + 1, a fiber frame or finite chart T = m.
_SUPPORT_PAD = 3


def kdifferential_coordinates(params: CurveParams, q: KDifferential) -> tuple:
    """Coordinates of a holomorphic quadratic differential; raises when the
    section is not holomorphic (not representable in the 9-dim model)."""
    if q.k != 2:
        raise DegenerateInput("expected a quadratic differential")
    qq = RationalFunction.of(q_poly(params))
    a_part = q.f * qq
    b_part = q.g * qq
    c_part = q.h * qq * qq
    for part, max_deg, label in ((a_part, 2, "A"), (b_part, 0, "b"), (c_part, 4, "C")):
        if part.denominator.degree != 0 or part.numerator.degree > max_deg:
            raise DegenerateInput(f"section is not holomorphic ({label}-component leaves the model)")
    coords = [Scalar.zero()] * OMEGA2_DIM
    for k in range(3):
        coords[k] = a_part.numerator.coefficient(k) if a_part else Scalar.zero()
    coords[3] = b_part.numerator.coefficient(0) if b_part else Scalar.zero()
    for k in range(5):
        coords[4 + k] = c_part.numerator.coefficient(k) if c_part else Scalar.zero()
    return tuple(coords)


def product_differential(params: CurveParams, i: int, j: int) -> KDifferential:
    """The quadratic differential w_i * w_j."""
    return KDifferential.of_differential(params, OMEGA[i]) * KDifferential.of_differential(params, OMEGA[j])


def _omega2_parts(params: CurveParams, x_series: LocalSeries) -> list[tuple]:
    """The 9 basis elements as (f, g, h) series, q = (f + g*y + h*y**2) (dx)**2,
    in coordinate order: (x**k/Q, 0, 0), (0, 1/Q, 0), (0, 0, x**k/Q**2)."""
    q_inv, x_powers = basis_factors(params, x_series, 4)
    q_inv2 = q_inv * q_inv
    zero = LocalSeries({}, q_inv.truncation)
    return (
        [(x_powers[k] * q_inv, zero, zero) for k in range(3)]
        + [(zero, q_inv, zero)]
        + [(zero, zero, x_powers[k] * q_inv2) for k in range(5)]
    )


def omega2_vanishing_conditions(params: CurveParams, divisor: Divisor) -> Matrix:
    """Linear conditions on the 9 coordinates cutting out the quadratic
    differentials vanishing to the divisor's multiplicities."""
    if not divisor.is_effective():
        raise DegenerateInput("support conditions need an effective divisor")
    rows: list[tuple] = []
    for point, mult in divisor.items_sorted():
        if isinstance(point, (BranchPoint, InfinityPoint, FinitePoint)):
            chart = chart_at(params, point, mult + _SUPPORT_PAD)
            y = chart.y_series
            y2 = y * y
            series_list = [f + g * y + h * y2 for f, g, h in _omega2_parts(params, chart.x_series)]
            bound = mult - 2 * chart.dx_valuation
            floor = min(
                (s.valuation() for s in series_list if s.valuation() is not None),
                default=bound,
            )
            for exponent in range(floor, bound):
                row = tuple(s.coefficient(exponent) for s in series_list)
                if any(row):
                    rows.append(row)
        elif isinstance(point, FiberPoint):
            frame = fiber_frame(params, point.x, mult + _SUPPORT_PAD)
            w = frame.w_series
            w2 = w * w
            components = [(f, g * w, h * w2) for f, g, h in _omega2_parts(params, frame.x_series)]
            for comp_index in range(3):
                for exponent in range(mult):
                    row = tuple(c[comp_index].coefficient(exponent) for c in components)
                    if any(row):
                        rows.append(row)
        else:
            raise DegenerateInput(
                f"support conditions over a collective locus entry ({point.kind}) are not supported"
            )
    return Matrix(rows)


def omega2_subspace(params: CurveParams, divisor: Divisor) -> list[tuple]:
    """Basis of the subspace of quadratic differentials vanishing on the
    divisor, in 9-dim coordinates."""
    conditions = omega2_vanishing_conditions(params, divisor)
    if not conditions.rows:
        return [tuple(row) for row in identity(OMEGA2_DIM).rows]
    return conditions.kernel_basis()


def xi_functional(params: CurveParams, xi: TangentVector, q: KDifferential) -> Scalar:
    """Evaluate the direction against a holomorphic quadratic differential,
    in 6*pi*i units: it sees only the A-coordinates, through the pairing
    covector.  By construction the symmetric-product relation
    w2**2 - w1*w3 is annihilated, so the value is representation-free."""
    coords = kdifferential_coordinates(params, q)
    c = pairing_covector(params, xi)
    return c[0] * coords[0] + c[1] * coords[1] + c[2] * coords[2]


def support_test(params: CurveParams, xi: TangentVector, divisor: Divisor) -> tuple[bool, int]:
    """(supported, dim of the vanishing subspace): supported means the
    direction annihilates every quadratic differential vanishing on the
    divisor."""
    if xi.is_zero():
        raise ZeroTangent("support test needs a nonzero direction")
    if not divisor.is_effective():
        raise DegenerateInput("support test needs an effective divisor")
    c = pairing_covector(params, xi)
    subspace = omega2_subspace(params, divisor)
    # The functional sees only the A-coordinates (xi_functional).
    supported = all(not (c[0] * v[0] + c[1] * v[1] + c[2] * v[2]) for v in subspace)
    return supported, len(subspace)
