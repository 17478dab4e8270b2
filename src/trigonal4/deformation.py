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

Everything downstream consumes the covector c = a A of the matrix, A
having rows (1, u_j, u_j**2)/Q'(u_j), computed once per request by the
classifier delta_nu_c_test.  Its certificate is the pair (params, c), and
every other fact is a property read off c: the pairing matrix (c bordered
by zeros) and its rank 2, the kernel, the conic value c0*c2 - c1**2, the
variant and the base locus.  Every fact of the base is read off a closed
form, with no matrix built:
c_k = sum_j a_j u_j**k / Q'(u_j) from the Q'(u_j) that curve.validate_params
stores, on unreduced integer triples reduced once per entry in
pairing_covector (the conic value once in CeresaCertificate.conic_value);
the kernel of c from its first nonzero entry; and the direction whose
covector is the conic point (1 : t : t**2) by Lagrange interpolation at
the nodes u, a_j = (u_j**3 - 1) prod_{k != j} (t - u_k), or
a_j = u_j**3 - 1 at t = infinity.  A is invertible on the base
(det A = V(u) / prod Q'(u_j), V the Vandermonde), so c != 0 for every
nonzero direction.  The tests check these closed forms against the moment
matrix, and the base locus against the divisor minimum over the annihilated
pencil (tests/oracles/).

The support of an on-conic direction is a lemma, not a computation.  Write
q = (A Q + b Q y + C y**2) (dx)**2 / Q**2.  The quadratic differentials
vanishing on the fiber over t are exactly those with A(t) = b = C(t) = 0,
and on the fiber at infinity those with A2 = b = C4 = 0: at three distinct
points y_k = w**k y0 the Vandermonde matrix in (1, y_k, y_k**2) is
invertible, and at a triple branch point C y**2, A Q and b Q y start at
orders 0, 1 and 2.  The direction's functional c . (A0, A1, A2) is c0 A(t)
(resp. c2 A2), so it vanishes on that 6-dimensional subspace: every
on-conic certificate is OnConicSupported, and the classifier cannot reach
OnConicNotSupported on this family.  The series support test of
tests/oracles/deformation.py handles arbitrary effective divisors, and the
tests check the lemma against it.
"""

from __future__ import annotations

import enum
import functools

from .curve import CurveParams, Differential, Divisor, basis_factors, branch_chart, trigonal_fiber
from .errors import DegenerateInput, StructuralError, ZeroTangent
from .scalars import INFINITY, Scalar, _add3, _inv3, _make, _mul3, _sub3, _triple
from .series import LocalSeries

# Sign fixed once so that the oracle's (0,1) entry for the first coordinate
# direction equals +1/Q'(u_1) in 6*pi*i units, matching the closed form;
# the raw Stokes bookkeeping produces the opposite sign.
ORACLE_SIGN = -1


class TangentVector:
    """Direction a1*d/du1 + a2*d/du2 + a3*d/du3 in the base."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = tuple(Scalar.of(c) for c in a)
        if len(self.a) != 3:
            raise DegenerateInput("a tangent vector has three coordinates")

    def is_zero(self) -> bool:
        return not any(self.a)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.a) + ")"


class CeresaVariant(enum.Enum):
    NOT_ON_CONIC = "NotOnConic"
    ON_CONIC_NOT_SUPPORTED = "OnConicNotSupported"
    ON_CONIC_SUPPORTED = "OnConicSupported"


# The dimension of the space of holomorphic quadratic differentials
# (A Q + b Q y + C y**2) (dx)**2 / Q**2, deg A <= 2, deg C <= 4.
OMEGA2_DIM = 9


class CeresaCertificate:
    """Outcome of the three-way vanishing test for the cycle-class invariant
    along a tangent direction: its parameter point and its image covector c,
    from which every other fact is read.

    NOT_ON_CONIC and ON_CONIC_NOT_SUPPORTED certify the tested invariant
    components nonzero; ON_CONIC_SUPPORTED records that every tested
    component vanishes (full vanishing of the invariant is not asserted).
    ON_CONIC_NOT_SUPPORTED stays in the output vocabulary, but on this
    family no direction reaches it (the lemma of the module docstring)."""

    omega2_dim = OMEGA2_DIM
    # c, the first row and column of the pairing, is nonzero and every other
    # entry vanishes.
    rank = 2

    def __init__(self, params: CurveParams, covector: tuple):
        # c = a*A with A invertible: only the zero direction gives c = 0.
        if not any(covector):
            raise ZeroTangent("the zero tangent vector is not a direction")
        self.params = params
        self.covector = covector

    @functools.cached_property
    def conic_value(self) -> Scalar:
        """c against the rank-3 quadric X*Z - Y**2 whose vanishing detects
        base points; computed once, since every variant-dependent property
        reads it."""
        c0, c1, c2 = map(_triple, self.covector)
        return _make(*_sub3(_mul3(c0, c2), _mul3(c1, c1)))

    @property
    def on_conic(self) -> bool:
        return not self.conic_value

    @property
    def variant(self) -> CeresaVariant:
        return CeresaVariant.ON_CONIC_SUPPORTED if self.on_conic else CeresaVariant.NOT_ON_CONIC

    @property
    def supported(self) -> bool | None:
        """True on the conic, by the support lemma; off it no support is
        tested."""
        return True if self.on_conic else None

    @property
    def subspace_dim(self) -> int | None:
        """On the conic, the quadratic differentials vanishing on the base
        fiber: OMEGA2_DIM less the three conditions A(t) = b = C(t) = 0."""
        return self.omega2_dim - 3 if self.on_conic else None

    @property
    def pairing(self) -> tuple:
        """The pairing matrix of the certified direction, from its covector."""
        return _pairing_of(self.covector)

    @property
    def kernel_basis(self) -> tuple:
        """Basis of the annihilator of c: with c_p its first nonzero
        entry, the vectors e_j - (c_j / c_p) e_p for j != p in order, as the
        one-row kernel (Matrix.kernel_basis) returns them."""
        c = self.covector
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

    @property
    def base_locus(self) -> Divisor:
        """Every annihilated form is P(x) dx/y**2 with deg P <= 2 and
        P0*c0 + P1*c1 + P2*c2 = 0.  On the conic c is (1 : t : t**2), or
        (0 : 0 : 1) for t = infinity, so the forms are exactly those with
        P(t) = 0 and their common zeros are the fiber over t; off the conic
        no common zero exists."""
        if not self.on_conic:
            return Divisor.zero()
        c = self.covector
        return trigonal_fiber(self.params, c[1] / c[0] if c[0] else INFINITY)


# ---------------------------------------------------------------------------
# The moment matrix and covectors
# ---------------------------------------------------------------------------


def pairing_covector(params: CurveParams, xi: TangentVector) -> tuple:
    """c = a . A, the only data of the pairing matrix:
    c_k = sum_j a_j u_j**k / Q'(u_j) for k = 0, 1, 2, reduced once each."""
    c0 = c1 = c2 = (0, 0, 1)
    for aj, uj, qpj in zip(xi.a, params.u, params.qprime_u):
        if aj:
            w = _mul3(_triple(aj), _inv3(_triple(qpj)))
            t = _triple(uj)
            wu = _mul3(w, t)
            c0, c1, c2 = _add3(c0, w), _add3(c1, wu), _add3(c2, _mul3(wu, t))
    return (_make(*c0), _make(*c1), _make(*c2))


def pairing_matrix(params: CurveParams, xi: TangentVector) -> tuple:
    """The 4x4 pairing matrix, as rows ``[l][k]``, of 6*pi*i coefficients of
    the wedge pairings between the basis forms (w0, w1, w2, w3) and the
    derivative forms of one tangent direction."""
    return _pairing_of(pairing_covector(params, xi))


def _pairing_of(c: tuple) -> tuple:
    """The (0,k) and (k,0) entries are c_k; every other entry vanishes."""
    zero = Scalar.zero()
    return ((zero,) + tuple(c),) + tuple((ck, zero, zero, zero) for ck in c)


# ---------------------------------------------------------------------------
# Residue oracle
# ---------------------------------------------------------------------------


# The residue oracle reads p = w_k / (x - u_j) through y**-1: its principal
# part and the y**-1 term that must vanish.  On a branch chart of truncation
# T, x - u_j starts at y**3 and is known below y**T, so 1/(x - u_j) starts at
# y**-3 with T - 3 known terms, below y**(T - 6); so is p, hence T = 6.  The
# w_l are then known through y**2, past the y**1 that the residue against an
# antiderivative with a pole of order at most 2 reads.
_RESIDUE_TRUNCATION = 6


def residue_matrix(params: CurveParams, j: int) -> tuple:
    """Oracle for the pairings of w_l against the u_j-derivatives of w_k, in
    6*pi*i units, as rows ``[l][k]``: expand the forms once at the branch
    point over u_j, antidifferentiate the principal part of each derivative
    form once, and read each entry off the residue of a product; exact and
    independent of the closed form."""
    if j not in (1, 2, 3):
        raise DegenerateInput("j indexes one of the three moving parameters")
    x0 = params.u[j - 1]
    chart = branch_chart(params, x0, _RESIDUE_TRUNCATION)
    q_inv, x_powers = basis_factors(params, chart.x_series, 2)
    y = chart.y_series
    base = q_inv * chart.dx_series
    forms = [base * y * y]  # w0 = y**2 dx / Q
    for l in range(3):  # w_l = x**(l-1) y dx / Q
        forms.append(base * y * x_powers[l])
    x_minus_inv = (chart.x_series - LocalSeries.constant(x0, chart.x_series.truncation)).inverse()
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


# ---------------------------------------------------------------------------
# Cone directions
# ---------------------------------------------------------------------------


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
    form a subspace of dimension OMEGA2_DIM - 3 = 6.  The zero direction
    has the zero covector, which the certificate refuses (ZeroTangent)."""
    return CeresaCertificate(params, pairing_covector(params, xi))
