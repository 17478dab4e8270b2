"""The closed forms of the base, proven in generic parameters.

The other tests sample these identities at points; here sympy cancels each
one to zero over symbols u1, u2, u3, a1, a2, a3 and t, so that a formula
the program reads in closed form holds for every point of the base.  sympy
is imported directly: without it this module errors instead of skipping.
The names follow the docstring of trigonal4.deformation:

* Q'(u_j) = (u_j**3 - 1) prod_{k != j} (u_j - u_k), A the matrix with rows
  (1, u_j, u_j**2)/Q'(u_j), c = a A the covector of the direction a;
* det A = V(u) / prod_j Q'(u_j), V(u) = prod_{i<j} (u_j - u_i) the
  Vandermonde determinant;
* c0*c2 - c1**2 = sum_{i<j} w_i w_j (u_i - u_j)**2 = -N / (V prod_j (u_j**3 - 1))
  with w_j = a_j/Q'(u_j), V = (u1 - u2)(u1 - u3)(u2 - u3) and
  N = a1 a2 (u3**3 - 1)(u1 - u2) - a1 a3 (u2**3 - 1)(u1 - u3)
      + a2 a3 (u1**3 - 1)(u2 - u3), which deformation.conic_value computes;
* the cone direction a_j = (u_j**3 - 1) prod_{k != j} (t - u_k) has the
  covector (1, t, t**2), and a_j = u_j**3 - 1 has (0, 0, 1);
* on the cube-root locus u_j = c w**(j-1), a = c**3 (trigonal4.qz24), the
  tangent a_j = 1/(3 u_j**2) has the covector (0, 1/(3a(a-1)), 0) and the
  conic value -1/(9 a**2 (a-1)**2), for generic c; w is a symbol reduced
  by w**2 + w + 1 = 0.  The (numerator, denominator) texts in a that the
  qz24 command prints are parsed and proven equal to both;
* on the branch chart over x0 = u_j, in the local coordinate y with
  1/Q = y**-3 and x - x0 = D(y) = y**3/q + e2 y**6 + e3 y**9, q = Q'(x0),
  the forms w0 = D'/y dy and w_l = (x0 + D)**(l-1) D'/y**2 dy have the
  pairings ORACLE_SIGN * res(w_l * W_k) / 3 that deformation.residue_matrix
  reads off leading terms: x0**(k-1)/q at (0, k) and (k, 0) for k >= 1 and
  0 elsewhere, W_k the antiderivative of the principal part of the
  derivative form m/(3D) w_k (m = 1 for k = 0, else 2), which has no y**-1
  term.  Every product steps in y**3, so the pairings do not depend on e2
  and e3.
"""

import io
import json

import sympy as sp

from trigonal4.cli import main
from trigonal4.deformation import ORACLE_SIGN

U = sp.symbols("u1:4")
A = sp.symbols("a1:4")
T = sp.Symbol("t")
CUBES = tuple(uj**3 - 1 for uj in U)
QPRIME = tuple(CUBES[j] * sp.Mul(*(U[j] - U[k] for k in range(3) if k != j)) for j in range(3))
MOMENTS = sp.Matrix([[U[j] ** k / QPRIME[j] for k in range(3)] for j in range(3)])


def vanishes(expr) -> bool:
    return sp.cancel(sp.together(expr)) == 0


def covector(a) -> tuple:
    return tuple(sp.Matrix([a]) * MOMENTS)


def test_det_of_the_moment_matrix():
    vandermonde = sp.Mul(*(U[j] - U[i] for i in range(3) for j in range(i + 1, 3)))
    assert vanishes(sp.Matrix([[uj**k for k in range(3)] for uj in U]).det() - vandermonde)
    assert vanishes(MOMENTS.det() - vandermonde / sp.Mul(*QPRIME))


def test_conic_value_closed_form():
    c0, c1, c2 = covector(A)
    w = tuple(A[j] / QPRIME[j] for j in range(3))
    pairs = sum(w[i] * w[j] * (U[i] - U[j]) ** 2 for i in range(3) for j in range(i + 1, 3))
    assert vanishes(c0 * c2 - c1**2 - pairs)
    (a1, a2, a3), (u1, u2, u3), (e1, e2, e3) = A, U, CUBES
    n = a1 * a2 * e3 * (u1 - u2) - a1 * a3 * e2 * (u1 - u3) + a2 * a3 * e1 * (u2 - u3)
    v = (u1 - u2) * (u1 - u3) * (u2 - u3)
    closed = -n / (v * e1 * e2 * e3)
    assert vanishes(pairs - closed)


def test_cone_directions_reach_the_conic_point():
    finite = tuple(CUBES[j] * sp.Mul(*(T - U[k] for k in range(3) if k != j)) for j in range(3))
    assert all(vanishes(ck - T**k) for k, ck in enumerate(covector(finite)))
    assert all(vanishes(ck - target) for ck, target in zip(covector(CUBES), (0, 0, 1)))


def vanishes_at_w(expr, w) -> bool:
    """expr, rational in w and other symbols, is 0 at a primitive cube root
    of unity w: its numerator reduces to 0 modulo w**2 + w + 1 and its
    denominator does not."""
    num, den = sp.fraction(sp.together(expr))
    minimal = w**2 + w + 1
    return sp.rem(sp.expand(num), minimal, w) == 0 and sp.rem(sp.expand(den), minimal, w) != 0


def printed_qz24(a) -> tuple:
    """The covector and the conic value that the qz24 command prints, each
    parsed from its num and den texts as a rational function of a."""
    out = io.StringIO()
    assert main(["qz24"], out) == 0
    doc = json.loads(out.getvalue())

    def parse(pair):
        num, den = (sp.parse_expr(pair[key].replace("^", "**"), {"a": a}) for key in ("num", "den"))
        return num / den

    return tuple(map(parse, doc["covector"])), parse(doc["conic_value"])


def test_cube_family_closed_form():
    c, w = sp.symbols("c w")
    cube = dict(zip(U, (c, c * w, c * w**2)))
    a = c**3
    tangent = tuple(1 / (3 * cube[uj] ** 2) for uj in U)
    c0, c1, c2 = (ck.subs(cube, simultaneous=True) for ck in covector(tangent))
    assert vanishes_at_w(c0, w) and vanishes_at_w(c2, w)
    assert vanishes_at_w(c1 - 1 / (3 * a * (a - 1)), w)
    assert vanishes_at_w(c0 * c2 - c1**2 + 1 / (9 * a**2 * (a - 1) ** 2), w)
    # what qz24 prints, at a = c**3
    symbol = sp.Symbol("a")
    printed_covector, printed_value = printed_qz24(symbol)
    for ck, printed in zip((c0, c1, c2), printed_covector):
        assert vanishes_at_w(ck - printed.subs(symbol, a), w)
    assert vanishes_at_w(c0 * c2 - c1**2 - printed_value.subs(symbol, a), w)


def test_leading_order_residue_is_the_full_residue():
    y, q, x0, e2, e3 = sp.symbols("y q x0 e2 e3")
    d = y**3 / q + e2 * y**6 + e3 * y**9
    forms = [sp.diff(d, y) / y] + [(x0 + d) ** (l - 1) * sp.diff(d, y) / y**2 for l in (1, 2, 3)]
    antiderivatives = []
    for k, form in enumerate(forms):
        principal = sp.series((1 if k == 0 else 2) / (3 * d) * form, y, 0, 0).removeO()
        assert principal.coeff(y, -1) == 0
        antiderivatives.append(sp.integrate(principal, y))
    for l, form in enumerate(forms):
        for k, antiderivative in enumerate(antiderivatives):
            pairing = ORACLE_SIGN * sp.expand(form * antiderivative).coeff(y, -1) / 3
            closed = x0 ** (k + l - 1) / q if 0 in (k, l) and k != l else 0
            assert vanishes(pairing - closed), (l, k)
