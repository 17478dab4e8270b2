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
  covector (1, t, t**2), and a_j = u_j**3 - 1 has (0, 0, 1).
"""

import sympy as sp

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
