"""First-order deformation theory of the family along its three parameters.

The cup-product pairings between the graded basis of 1-forms and the
derivative forms of a tangent direction reduce to residues at the moving
branch points.  All pairing values are exact elements of Q(w) measured in
units of the fixed transcendental 6*pi*i, computed two independent ways:

* a closed form: the (0,k) and (k,0) entries are sum_j a_j u_j**(k-1)/Q'(u_j)
  and every other entry vanishes;
* a residue oracle that reads both forms off their leading terms in the
  local coordinate y at the branch point, with Q' taken from the expanded Q,
  antidifferentiates the one pole term of each derivative form, and reads
  off the residue of the product (residue_matrix); tests/test_closed_forms.py
  proves in generic parameters that the leading terms give the full residue.

A direction's certificate is the pair (params, xi) and its conic value
c0*c2 - c1**2, where c = a A is the covector of the matrix, A having rows
(1, u_j, u_j**2)/Q'(u_j).  With w_j = a_j/Q'(u_j), summing over pairs gives
c0*c2 - c1**2 = sum_{i<j} w_i w_j (u_i - u_j)**2 = -N / (V prod_j (u_j**3 - 1)),
N = a1 a2 (u3**3 - 1)(u1 - u2) - a1 a3 (u2**3 - 1)(u1 - u3)
    + a2 a3 (u1**3 - 1)(u2 - u3),
V = (u1 - u2)(u1 - u3)(u2 - u3): every factor is one that
curve.validate_params forms, so conic_value needs neither Q'(u_j) nor c.
The factors the point alone fixes, the three (u_k**3 - 1)(u_i - u_j) of N
and the inverse of -V prod_j (u_j**3 - 1), minus their product, are formed
once per point and kept on its CurveParams.
Every other fact is read off c, computed on first read: the pairing matrix
(c bordered by zeros) and its rank 2, the kernel, and the base locus.
Every fact of the base is read off a closed form, with no matrix built:
c_k = sum_j a_j u_j**k / Q'(u_j); the kernel of c from its first nonzero
entry; and the direction whose covector is the conic point (1 : t : t**2)
by Lagrange interpolation at the nodes u,
a_j = (u_j**3 - 1) prod_{k != j} (t - u_k), or a_j = u_j**3 - 1 at
t = infinity.  conic_value, pairing_covector, the kernel, cone_directions
and residue_matrix compose unreduced integer triples and reduce once per
value they return (the oracle also at dx and its antiderivatives); the
covector reads the triples of 1/Q'(u_j) that its CurveParams keeps.  A is
invertible on the base (det A = V(u) / prod Q'(u_j), V(u) = -V the
Vandermonde determinant), so c != 0 for every nonzero direction.
tests/test_closed_forms.py proves the conic value, det A and the cone
direction in generic parameters; the other tests check the closed forms
against the moment matrix, and the base locus against the divisor minimum
over the annihilated pencil (tests/oracles/).

The support of an on-conic direction is a lemma, not a computation.  Write
q = (A Q + b Q y + C y**2) (dx)**2 / Q**2.  The quadratic differentials
vanishing on the fiber over t are exactly those with A(t) = b = C(t) = 0,
and on the fiber at infinity those with A2 = b = C4 = 0: at three distinct
points y_k = w**k y0 the Vandermonde matrix in (1, y_k, y_k**2) is
invertible, and at a triple branch point C y**2, A Q and b Q y start at
orders 0, 1 and 2.  The direction's functional c . (A0, A1, A2) is c0 A(t)
(resp. c2 A2), so it vanishes on that 6-dimensional subspace: every
on-conic certificate is OnConicSupported.  The paper's third outcome, on
the conic but not supported, cannot occur on this family, so no variant
names it.  The series support test of
tests/oracles/deformation.py handles arbitrary effective divisors, and the
tests check the lemma against it.
"""

from __future__ import annotations

import math
from functools import cached_property

from .curve import CurveParams, Divisor, trigonal_fiber
from .errors import DegenerateInput, ZeroTangent
from .scalars import INFINITY, Scalar, _add3, _inv3, _make, _mul3, _sub3, _triple

# Sign fixed once so that the oracle's (0,1) entry for the first coordinate
# direction equals +1/Q'(u_1) in 6*pi*i units, matching the closed form;
# the raw Stokes bookkeeping produces the opposite sign.
ORACLE_SIGN = -1

# The node count of the numeric contour check (numeric.numeric_residue_matrix)
# and the largest accepted one.  The check reaches its 1e-8 tolerance with
# far fewer nodes; the bound keeps a request's node lists and run time
# finite.  They live here so that the CLI range-checks --quad-nodes on the
# exact path without loading numeric.
DEFAULT_NODES = 512
MAX_QUAD_NODES = 4096


class TangentVector:
    """Direction a1*d/du1 + a2*d/du2 + a3*d/du3 in the base."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = tuple(map(Scalar.of, a))
        if len(self.a) != 3:
            raise DegenerateInput("a tangent vector has three coordinates")

    def is_zero(self) -> bool:
        return not any(self.a)


NOT_ON_CONIC, ON_CONIC_SUPPORTED = "NotOnConic", "OnConicSupported"  # the printed variant names


# The dimension of the space of holomorphic quadratic differentials
# (A Q + b Q y + C y**2) (dx)**2 / Q**2, deg A <= 2, deg C <= 4.
OMEGA2_DIM = 9


class CeresaCertificate:
    """Outcome of the three-way vanishing test for the cycle-class invariant
    along a tangent direction: its parameter point, the direction and its
    conic value, from which the variant is read; the image covector c, from
    which the kernel and the base locus are read, is computed on first read.

    NOT_ON_CONIC certifies the tested invariant components nonzero;
    ON_CONIC_SUPPORTED records that every tested component vanishes (full
    vanishing of the invariant is not asserted).  The third outcome, on the
    conic but not supported, cannot occur on this family (the lemma of the
    module docstring)."""

    omega2_dim = OMEGA2_DIM
    # c, the first row and column of the pairing, is nonzero and every other
    # entry vanishes.
    rank = 2

    def __init__(self, params: CurveParams, xi: TangentVector):
        # c = a*A with A invertible: only the zero direction gives c = 0.
        if xi.is_zero():
            raise ZeroTangent("the zero tangent vector is not a direction")
        self.params = params
        self.xi = xi
        self.conic_value = conic_value(params, xi)
        self.on_conic = not self.conic_value

    @cached_property
    def covector(self) -> tuple:
        return pairing_covector(self.params, self.xi)

    @property
    def variant(self) -> str:
        return ON_CONIC_SUPPORTED if self.on_conic else NOT_ON_CONIC

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
    def kernel_basis(self) -> tuple:
        """Basis of the annihilator of c, as coefficient rows (b0, b1, b2, b3)
        of forms (curve.Differential): with c_p the first nonzero entry of c,
        b0 = 0 and (b1, b2, b3) = e_j - (c_j / c_p) e_p for j != p in order,
        as the one-row kernel (Matrix.kernel_basis) returns them."""
        c = self.covector
        p = 0 if c[0] else 1 if c[1] else 2
        a, b, d = _inv3(_triple(c[p]))
        zero, one = Scalar.zero(), Scalar.one()
        basis = []
        for j in range(3):
            if j != p:
                row = [zero] * 4
                row[j + 1] = one
                row[p + 1] = _make(*_mul3(_triple(c[j]), (-a, -b, d)))
                basis.append(tuple(row))
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


def conic_value(params: CurveParams, xi: TangentVector) -> Scalar:
    """c0*c2 - c1**2, the covector against the rank-3 quadric X*Z - Y**2
    whose vanishing detects base points, as -N / (V prod_j e_j), e_j =
    u_j**3 - 1 (module docstring), and one reduction.  What the point
    fixes is formed on the point's first conic value and kept on params:
    the triples X_k of N = a1 (a2 X3 - a3 X2) + a2 a3 X1, and off the conic
    -V prod_j e_j = -X1 X2 X3 = h (da + db w)/dd, h its content gcd, as
    the conjugate of da + db w over its norm, dd and h.  With
    N = g (na + nb w)/nd, the ratio g dd / (h nd) is reduced apart, so that
    large literals reach the last gcd without the factors it would
    cancel."""
    (d12, d13, d23), (e1, e2, e3) = params.differences, params.cubes_minus_one
    if params.conic_terms is None:
        params.conic_terms = _mul3(e3, d12), _mul3(e2, d13), _mul3(e1, d23)
    a1, a2, a3 = map(_triple, xi.a)
    x3, x2, x1 = params.conic_terms
    na, nb, nd = _add3(_mul3(a1, _sub3(_mul3(a2, x3), _mul3(a3, x2))), _mul3(_mul3(a2, a3), x1))
    g = math.gcd(na, nb)
    if not g:
        return _make(0, 0, 1)
    if params.conic_inverse is None:
        a, b, d = _mul3(_mul3(x1, x2), x3)  # V prod_j e_j = X1 X2 X3
        h = math.gcd(a, b)
        a, b = -a // h, -b // h
        params.conic_inverse = (a - b, -b, a * a - a * b + b * b), d, h
    inverse, dd, h = params.conic_inverse
    r, s = g * dd, h * nd
    k = math.gcd(r, s)
    r, s = r // k, s // k
    # (r/s) (na + nb w)/(da + db w), the inverse as conjugate over norm
    a, b, d = _mul3((na // g, nb // g, s), inverse)
    return _make(a * r, b * r, d)


def pairing_covector(params: CurveParams, xi: TangentVector) -> tuple:
    """c = a . A, the only data of the pairing matrix:
    c_k = sum_j a_j u_j**k / Q'(u_j) for k = 0, 1, 2, reduced once each."""
    c0 = c1 = c2 = (0, 0, 1)
    for aj, uj, inverse in zip(xi.a, params.u, params.qprime_inverses):
        if aj:
            w = _mul3(_triple(aj), inverse)
            t = _triple(uj)
            wu = _mul3(w, t)
            c0, c1, c2 = _add3(c0, w), _add3(c1, wu), _add3(c2, _mul3(wu, t))
    return (_make(*c0), _make(*c1), _make(*c2))


def bordered(c: tuple, zero) -> tuple:
    """The (0,k) and (k,0) entries are c_k (Scalars or literals), the rest zero."""
    return ((zero,) + tuple(c),) + tuple((ck, zero, zero, zero) for ck in c)


# ---------------------------------------------------------------------------
# Residue oracle
# ---------------------------------------------------------------------------


def residue_matrix(params: CurveParams, j: int) -> tuple:
    """Oracle for the pairings of w_l against the u_j-derivatives of w_k, in
    6*pi*i units, as rows ``[l][k]``.  It checks the closed form at leading
    order, by a derivation separate from pairing_covector: q = Q'(u_j) is
    the derivative of the expanded Q (CurveParams.qprime_at), not the
    factored product that pairing_covector reads.

    In the local coordinate y at the branch point over x0 = u_j,
    1/Q = y**-3 exactly, and x - x0 = y**3/q, dx = 3 y**2/q dy and
    x**l = x0**l, each up to a factor 1 + O(y**3).  So w0 = y**2 dx/Q is
    3y/q dy and w_l = x**(l-1) y dx/Q is 3 x0**(l-1)/q dy, and the
    derivative form (d/du_j) w_k = m/(3 (x - x0)) w_k (m = 1 for k = 0,
    else 2) has one pole term, y**-2 resp. 2 x0**(k-1) y**-3, and no dy/y
    term; its antiderivative is exactly -y**-1 resp. -x0**(k-1) y**-2.  Every
    product of a form and an antiderivative steps in y**3 from its leading
    term, so the residue is that term's coefficient when it sits at y**-1,
    and each entry is ORACLE_SIGN * residue / 3.  tests/test_closed_forms.py
    proves the same entries with the factors 1 + O(y**3) kept symbolic."""
    if j not in (1, 2, 3):
        raise DegenerateInput("j indexes one of the three moving parameters")
    x0 = params.u[j - 1]
    t, q = _triple(x0), _triple(params.qprime_at(x0))
    # reduced per entry, and at dx and the antiderivatives for large literals
    dx = _triple(_make(*_mul3((3, 0, 1), _inv3(q))))
    # (exponent of y, coefficient) of each leading term, over dy
    forms = [(1, dx)] + [(0, _mul3(dx, p)) for p in ((1, 0, 1), t, _mul3(t, t))]
    antiderivatives = []
    for m, (n, c) in zip((1, 2, 2, 2), forms):
        # (d/du_j) w_k = m/(3 (x - x0)) w_k has its pole term m q c / 3 at
        # y**(n - 3), so its antiderivative is -m q c / (3 (2 - n)) y**(n - 2)
        antiderivatives.append((n - 2, _triple(_make(*_mul3(_mul3(c, q), (-m, 0, 3 * (2 - n)))))))
    zero = Scalar.zero()
    return tuple(
        tuple(_make(*_mul3(_mul3((ORACLE_SIGN, 0, 3), c), a)) if n + e == -1 else zero for e, a in antiderivatives)
        for n, c in forms
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
    a_j = u_j**3 - 1, as validate_params formed it."""
    e = params.cubes_minus_one
    if t is INFINITY:
        return TangentVector(tuple(_make(*ej) for ej in e))
    t = _triple(Scalar.of(t))
    t_minus_u = [_sub3(t, _triple(uk)) for uk in params.u]
    return TangentVector(
        tuple(
            _make(*_mul3(e[j], _mul3(t_minus_u[k], t_minus_u[l])))
            for j, (k, l) in enumerate(((1, 2), (0, 2), (0, 1)))
        )
    )


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


def delta_nu_c_test(params: CurveParams, xi: TangentVector) -> CeresaCertificate:
    """The three-way test of a tangent direction, whose third outcome (on the
    conic but not supported on the base locus) cannot occur on this family:
    off the conic (base locus empty, tested invariant components certified
    nonzero), or on the conic and supported (every tested component
    vanishes).  On the conic the support is read off the lemma of the module
    docstring: the quadratic differentials vanishing on its base fiber form
    a subspace of dimension OMEGA2_DIM - 3 = 6.  The certificate
    refuses the zero direction (ZeroTangent), whose covector is zero."""
    return CeresaCertificate(params, xi)
