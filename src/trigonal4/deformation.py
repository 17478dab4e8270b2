"""First-order deformation theory of the family along its three parameters.

The cup-product pairings between the graded basis of 1-forms and the
derivative forms of a tangent direction reduce to residues at the moving
branch points.  All pairing values are exact elements of Q(w) measured in
units of the fixed transcendental 6*pi*i, computed two independent ways:

* a closed form: the (0,k) and (k,0) entries are sum_j a_j u_j**(k-1)/Q'(u_j)
  and every other entry vanishes;
* a residue oracle that expands both forms in the local coordinate y at the
  branch point, antidifferentiates the principal part, and reads off the
  residue of the product.

Everything downstream (the pairing matrix and its rank, kernels, the conic
criterion, base loci, the certificate classifier) consumes the covector
c = a A of the matrix, A having rows (1, u_j, u_j**2)/Q'(u_j), computed
once per request: a certificate carries c, and the `analyze` report reads
the pairing matrix and its rank off it (CeresaCertificate.pairing).  Every
fact of the base is read off a closed form, with no matrix built:
c_k = sum_j a_j u_j**k / Q'(u_j) from the Q'(u_j) that curve.validate_params
stores; the kernel of c from its first nonzero entry; and the direction
whose covector is the conic point (1 : t : t**2) by Lagrange interpolation
at the nodes u, a_j = (u_j**3 - 1) prod_{k != j} (t - u_k), or
a_j = u_j**3 - 1 at t = infinity.  A is invertible on the base
(det A = V(u) / prod Q'(u_j), V the Vandermonde), so c != 0 for every
nonzero direction; the tests check the closed forms against moment_matrix.
The base locus is read off c in closed form; the divisor minimum over the
annihilated pencil (curve.common_zeros_by_divisors) is the cross-check the
tests run.

The support of an on-conic direction is a lemma, not a computation.  Write
q = (A Q + b Q y + C y**2) (dx)**2 / Q**2.  The quadratic differentials
vanishing on the fiber over t are exactly those with A(t) = b = C(t) = 0,
and on the fiber at infinity those with A2 = b = C4 = 0: at three distinct
points y_k = w**k y0 the Vandermonde matrix in (1, y_k, y_k**2) is
invertible, and at a triple branch point C y**2, A Q and b Q y start at
orders 0, 1 and 2.  The direction's functional c . (A0, A1, A2) is c0 A(t)
(resp. c2 A2), so it vanishes on that 6-dimensional subspace: every
on-conic certificate is OnConicSupported, and the classifier cannot reach
OnConicNotSupported on this family.  The series support test (support_test)
handles arbitrary effective divisors and is the oracle the tests check the
lemma against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .curve import (
    OMEGA,
    BranchPoint,
    CurveParams,
    Differential,
    Divisor,
    FiberPoint,
    FinitePoint,
    InfinityPoint,
    KDifferential,
    basis_factors,
    branch_chart,
    chart_at,
    fiber_frame,
    trigonal_fiber,
)
from .errors import DegenerateInput, StructuralError, ZeroTangent
from .linalg import Matrix
from .polynomials import RationalFunction
from .scalars import INFINITY, Scalar
from .series import DEFAULT_ORDER, LocalSeries

# Sign fixed once so that the oracle's (0,1) entry for the first coordinate
# direction equals +1/Q'(u_1) in 6*pi*i units, matching the closed form;
# the raw Stokes bookkeeping produces the opposite sign.
ORACLE_SIGN = -1


@dataclass(frozen=True)
class TangentVector:
    """Direction a1*d/du1 + a2*d/du2 + a3*d/du3 in the base."""

    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Scalar.of(c) for c in self.a))
        if len(self.a) != 3:
            raise DegenerateInput("a tangent vector has three coordinates")

    def is_zero(self) -> bool:
        return not any(self.a)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.a) + ")"


@dataclass(frozen=True)
class PairingMatrix:
    """4x4 matrix of 6*pi*i coefficients of the wedge pairings between the
    basis forms and the derivative forms of one tangent direction; rows and
    columns follow the ordered basis (w0, w1, w2, w3)."""

    entries: tuple

    def entry(self, l: int, k: int) -> Scalar:
        return self.entries[l][k]

    def as_matrix(self) -> Matrix:
        return Matrix(self.entries)

    def rank(self) -> int:
        """2 when the covector, the first row and column, is nonzero, else 0:
        every other entry vanishes."""
        return 2 if any(self.entries[0]) else 0


@dataclass(frozen=True)
class ConicReport:
    """The image covector of a tangent direction and its evaluation against
    the rank-3 quadric X*Z - Y**2 whose vanishing detects base points."""

    covector: tuple
    value: Scalar
    on_conic: bool


class CeresaVariant(enum.Enum):
    NOT_ON_CONIC = "NotOnConic"
    ON_CONIC_NOT_SUPPORTED = "OnConicNotSupported"
    ON_CONIC_SUPPORTED = "OnConicSupported"


@dataclass(frozen=True)
class CeresaCertificate:
    """Outcome of the three-way vanishing test for the cycle-class invariant
    along a tangent direction.

    NOT_ON_CONIC and ON_CONIC_NOT_SUPPORTED certify the tested invariant
    components nonzero; ON_CONIC_SUPPORTED records that every tested
    component vanishes (full vanishing of the invariant is not asserted).
    ON_CONIC_NOT_SUPPORTED stays in the output vocabulary, but on this
    family no direction reaches it (the lemma of the module docstring)."""

    variant: CeresaVariant
    conic: ConicReport
    base_locus: Divisor
    kernel_basis: tuple
    supported: bool | None
    omega2_dim: int
    subspace_dim: int | None

    @property
    def pairing(self) -> PairingMatrix:
        """The pairing matrix of the certified direction, from its covector."""
        return _pairing_of(self.conic.covector)


# ---------------------------------------------------------------------------
# The moment matrix and covectors
# ---------------------------------------------------------------------------


def moment_matrix(params: CurveParams) -> Matrix:
    """Rows (1, u_j, u_j**2) / Q'(u_j), with Q' evaluated from its
    coefficients: the matrix that pairing_covector and cone_directions read
    in closed form, kept as their test oracle.  Its determinant is
    V(u) / prod Q'(u_j) with V the Vandermonde of u, nonzero on the base."""
    rows = []
    for uj in params.u:
        inv = params.qprime_at(uj).inverse()
        rows.append((inv, uj * inv, uj * uj * inv))
    return Matrix.from_rows(rows)


def pairing_covector(params: CurveParams, xi: TangentVector) -> tuple:
    """c = a . A, the only data of the pairing matrix:
    c_k = sum_j a_j u_j**k / Q'(u_j) for k = 0, 1, 2."""
    c0 = c1 = c2 = Scalar.zero()
    for aj, uj, qpj in zip(xi.a, params.u, params.qprime_u):
        if aj:
            w = aj / qpj
            wu = w * uj
            c0, c1, c2 = c0 + w, c1 + wu, c2 + wu * uj
    return (c0, c1, c2)


def pairing_matrix(params: CurveParams, xi: TangentVector) -> PairingMatrix:
    return _pairing_of(pairing_covector(params, xi))


def _pairing_of(c: tuple) -> PairingMatrix:
    """The (0,k) and (k,0) entries are c_k; every other entry vanishes."""
    zero = Scalar.zero()
    return PairingMatrix(((zero,) + tuple(c),) + tuple((ck, zero, zero, zero) for ck in c))


# ---------------------------------------------------------------------------
# Residue oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _branch_form_data(params: CurveParams, x0: Scalar, order: int) -> tuple:
    """Shared expansion data at a branch point: the coefficient series S_l
    with w_l = S_l(y) dy for l = 0..3, and the inverse of (x - x0)."""
    chart = branch_chart(params, x0, order)
    q_inv, x_powers = basis_factors(params, chart.x_series, 2)
    y = chart.y_series
    base = q_inv * chart.dx_series
    forms = [base * y * y]  # w0 = y**2 dx / Q
    for l in range(3):  # w_l = x**(l-1) y dx / Q
        forms.append(base * y * x_powers[l])
    x_minus = chart.x_series - LocalSeries.constant(x0, chart.x_series.truncation)
    return tuple(forms), x_minus.inverse()


def residue_pairing(
    params: CurveParams, j: int, l: int, k: int, order: int = DEFAULT_ORDER
) -> Scalar:
    """Oracle for the pairing of w_l against the u_j-derivative of w_k, in
    6*pi*i units: expand both at the branch point over u_j, antidifferentiate
    the principal part of the derivative form, and take the residue of the
    product; exact and independent of the closed form."""
    if j not in (1, 2, 3):
        raise DegenerateInput("j indexes one of the three moving parameters")
    if order < DEFAULT_ORDER:
        order = DEFAULT_ORDER
    x0 = params.u[j - 1]
    forms, x_minus_inv = _branch_form_data(params, x0, order)
    s_series = forms[l]
    # (d/du_j) w_k = m/(3 (x - u_j)) * w_k with m = 1 for k = 0, else 2
    m = 1 if k == 0 else 2
    p_series = forms[k] * x_minus_inv.scale(Scalar.of(m) / 3)
    if p_series.coefficient(-1):
        raise StructuralError("derivative form has a dy/y term; cannot antidifferentiate")
    principal = {
        n: c for n, c in p_series.coefficients.items() if n <= -2
    }
    anti = LocalSeries(
        {n + 1: c / (n + 1) for n, c in principal.items()}, p_series.truncation + 1
    )
    product = s_series * anti
    residue = product.coefficient(-1)
    return Scalar.of(ORACLE_SIGN) * residue / 3


# ---------------------------------------------------------------------------
# Rank, kernel, conic
# ---------------------------------------------------------------------------


def ks_rank(params: CurveParams, xi: TangentVector) -> int:
    """Rank of the first-order deformation as a map from holomorphic forms
    to antiholomorphic classes: 0 only for the zero direction, else 2."""
    if xi.is_zero():
        return 0
    return pairing_matrix(params, xi).rank()


def kernel_W(params: CurveParams, xi: TangentVector) -> tuple:
    """Canonical basis of the annihilated 2-dimensional space of 1-forms
    inside the span of (w1, w2, w3)."""
    if xi.is_zero():
        raise ZeroTangent("kernel of the zero direction is everything")
    return _kernel_of(pairing_covector(params, xi))


def _kernel_of(c: tuple) -> tuple:
    """Basis of the annihilator of c != 0: with c_p its first nonzero entry,
    the vectors e_j - (c_j / c_p) e_p for j != p in order, as the one-row
    kernel (Matrix.kernel_basis) returns them."""
    p = next(i for i, ci in enumerate(c) if ci)
    inv = c[p].inverse()
    zero = Scalar.zero()
    basis = []
    for j in range(3):
        if j != p:
            b = [zero] * 3
            b[j] = Scalar.one()
            b[p] = -(c[j] * inv)
            basis.append(Differential(zero, tuple(b)))
    return tuple(basis)


def conic_condition(params: CurveParams, xi: TangentVector) -> ConicReport:
    """Whether the covector of the direction lies on the quadric
    X*Z - Y**2 = 0, the exact condition for a nonempty base locus."""
    if xi.is_zero():
        raise ZeroTangent("conic condition needs a nonzero direction")
    return _conic_of(pairing_covector(params, xi))


def _conic_of(c: tuple) -> ConicReport:
    value = c[0] * c[2] - c[1] * c[1]
    return ConicReport(covector=tuple(c), value=value, on_conic=not value)


def cone_directions(params: CurveParams, t) -> TangentVector:
    """The unique direction (up to scale) whose covector is the conic point
    (1 : t : t**2), or (0 : 0 : 1) at t = infinity.  It is Lagrange
    interpolation at the nodes u: sum_j L_j(t) u_j**k = t**k for k <= 2, so
    a_j = Q'(u_j) L_j(t) = (u_j**3 - 1) prod_{k != j} (t - u_k), and at
    infinity, where L_j(t) is replaced by its leading coefficient,
    a_j = u_j**3 - 1."""
    u = params.u
    one = Scalar.one()
    a = [uj ** 3 - one for uj in u]
    if t is not INFINITY:
        t = Scalar.of(t)
        for j, (k, l) in enumerate(((1, 2), (0, 2), (0, 1))):
            a[j] = a[j] * (t - u[k]) * (t - u[l])
    return TangentVector(tuple(a))


def base_locus(params: CurveParams, xi: TangentVector) -> Divisor:
    """Common zero divisor of the annihilated space, read off the covector."""
    if xi.is_zero():
        raise ZeroTangent("base locus needs a nonzero direction")
    return _locus_of(params, conic_condition(params, xi))


def _locus_of(params: CurveParams, conic: ConicReport) -> Divisor:
    """Every annihilated form is P(x) dx/y**2 with deg P <= 2 and
    P0*c0 + P1*c1 + P2*c2 = 0.  On the conic c is (1 : t : t**2), or
    (0 : 0 : 1) for t = infinity, so the forms are exactly those with
    P(t) = 0 and their common zeros are the fiber over t; off the conic no
    common zero exists."""
    if not conic.on_conic:
        return Divisor.zero()
    c = conic.covector
    return trigonal_fiber(params, c[1] / c[0] if c[0] else INFINITY)


# ---------------------------------------------------------------------------
# The 9-dimensional space of quadratic differentials
# ---------------------------------------------------------------------------

# Coordinates on holomorphic quadratic differentials: (A(x), b, C(x)) with
#   q = (A(x)*Q + b*Q*y + C(x)*y**2) (dx)**2 / Q**2,
# deg A <= 2, deg C <= 4: 3 + 1 + 5 = 9 coordinates, ordered
# (A0, A1, A2, b, C0, C1, C2, C3, C4).  The basis x**k/Q, y/Q, x**k y**2/Q**2
# is fixed, so on any chart it is expanded from one 1/Q(x(s)) series and the
# powers of x(s) (curve.basis_factors).
OMEGA2_DIM = 9


def kdifferential_coordinates(params: CurveParams, q: KDifferential) -> tuple:
    """Coordinates of a holomorphic quadratic differential; raises when the
    section is not holomorphic (not representable in the 9-dim model)."""
    if q.k != 2:
        raise DegenerateInput("expected a quadratic differential")
    qq = RationalFunction.of(params.q_poly)
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


def omega2_vanishing_conditions(params: CurveParams, divisor: Divisor, order: int = DEFAULT_ORDER) -> Matrix:
    """Linear conditions on the 9 coordinates cutting out the quadratic
    differentials vanishing to the divisor's multiplicities."""
    if not divisor.is_effective():
        raise DegenerateInput("support conditions need an effective divisor")
    rows: list[tuple] = []
    for point, mult in divisor.items_sorted():
        if isinstance(point, (BranchPoint, InfinityPoint, FinitePoint)):
            chart = chart_at(params, point, max(order, mult + 8))
            y = chart.y_series
            y2 = y * y
            series_list = [f + g * y + h * y2 for f, g, h in _omega2_parts(params, chart.x_series)]
            bound = mult - 2 * chart.dx_order
            floor = min(
                (s.valuation() for s in series_list if s.valuation() is not None),
                default=bound,
            )
            for exponent in range(floor, bound):
                row = tuple(s.coefficient(exponent) for s in series_list)
                if any(row):
                    rows.append(row)
        elif isinstance(point, FiberPoint):
            frame = fiber_frame(params, point.x, max(order, mult + 8))
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
    return Matrix.from_rows(rows) if rows else Matrix(())


def omega2_subspace(params: CurveParams, divisor: Divisor, order: int = DEFAULT_ORDER) -> list[tuple]:
    """Basis of the subspace of quadratic differentials vanishing on the
    divisor, in 9-dim coordinates."""
    conditions = omega2_vanishing_conditions(params, divisor, order)
    if conditions.nrows == 0:
        return [tuple(row) for row in Matrix.identity(OMEGA2_DIM).rows]
    return conditions.kernel_basis()


def xi_functional(params: CurveParams, xi: TangentVector, q: KDifferential) -> Scalar:
    """Evaluate the direction against a holomorphic quadratic differential,
    in 6*pi*i units: it sees only the A-coordinates, through the pairing
    covector.  By construction the symmetric-product relation
    w2**2 - w1*w3 is annihilated, so the value is representation-free."""
    coords = kdifferential_coordinates(params, q)
    c = pairing_covector(params, xi)
    return c[0] * coords[0] + c[1] * coords[1] + c[2] * coords[2]


def support_test(params: CurveParams, xi: TangentVector, divisor: Divisor, order: int = DEFAULT_ORDER) -> tuple[bool, int]:
    """(supported, dim of the vanishing subspace): supported means the
    direction annihilates every quadratic differential vanishing on the
    divisor."""
    if xi.is_zero():
        raise ZeroTangent("support test needs a nonzero direction")
    if not divisor.is_effective():
        raise DegenerateInput("support test needs an effective divisor")
    c = pairing_covector(params, xi)
    subspace = omega2_subspace(params, divisor, order)
    # The functional sees only the A-coordinates (xi_functional).
    supported = all(not (c[0] * v[0] + c[1] * v[1] + c[2] * v[2]) for v in subspace)
    return supported, len(subspace)


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


def delta_nu_c_test(params: CurveParams, xi: TangentVector) -> CeresaCertificate:
    """Three-way classification of a tangent direction: off the conic (base
    locus empty, tested invariant components certified nonzero), on the conic
    but not supported on the base locus (also certified nonzero), or on the
    conic and supported (every tested component vanishes).  On the conic the
    support is read off the lemma of the module docstring: the direction is
    supported, and the quadratic differentials vanishing on its base fiber
    form a subspace of dimension OMEGA2_DIM - 3 = 6."""
    if xi.is_zero():
        raise ZeroTangent("classification needs a nonzero direction")
    c = pairing_covector(params, xi)
    conic = _conic_of(c)
    if conic.on_conic:
        variant, supported, dim = CeresaVariant.ON_CONIC_SUPPORTED, True, OMEGA2_DIM - 3
    else:
        variant, supported, dim = CeresaVariant.NOT_ON_CONIC, None, None
    return CeresaCertificate(
        variant=variant,
        conic=conic,
        base_locus=_locus_of(params, conic),
        kernel_basis=_kernel_of(c),
        supported=supported,
        omega2_dim=OMEGA2_DIM,
        subspace_dim=dim,
    )
