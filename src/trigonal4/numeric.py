"""Floating cross-check of the residue pairings by contour quadrature.

Strictly an oracle: nothing exact ever consumes these floats.  The pairing
integrand is evaluated on a circle |y| = rho inside the branch chart, with
x(y) recovered by complex Newton iteration from the curve equation (no
exact series data enters).  Trapezoidal quadrature on a circle converges
exponentially for analytic integrands, so a few hundred nodes deliver far
better than the 1e-8 comparison tolerance.

One request does each piece of float work once: the coefficients of Q and
Q' are converted to complex once, the contour (the nodes y, the Newton roots
x and Q'(x)) is solved once per (params, j, nodes), and the principal-part
moments once per k; all 16 entries are read off that.  A Newton root is
accepted by a backward-error test, |Q(x) - y^3| <= 1e-12 * max(1, |y^3|,
sum |c_i| |x|^i): Horner's rule evaluates Q only to within a few rounding
errors of the largest terms it sums, so a converged root cannot be held to
a residual smaller than that.
"""

from __future__ import annotations

import cmath

from .curve import CurveParams
from .deformation import ORACLE_SIGN
from .errors import DegenerateInput, OracleMismatch, StructuralError
from .scalars import Scalar

DEFAULT_NODES = 512


def _horner(coeffs: list, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _solve_x(q: list, qp: list, q_abs: list, x_seed: complex, y: complex) -> complex:
    """Newton solve of Q(x) = y**3 starting near the branch coordinate."""
    target = y ** 3
    x = x_seed
    for _ in range(80):
        fx = _horner(q, x) - target
        if abs(fx) < 1e-30:
            break
        x -= fx / _horner(qp, x)
    scale = max(1.0, abs(target), abs(_horner(q_abs, abs(x))))
    if not abs(_horner(q, x) - target) <= 1e-12 * scale:
        raise StructuralError("Newton iteration failed on the contour")
    return x


def _chart_radius(params: CurveParams, j: int) -> float:
    x0 = complex(params.u[j - 1])
    d_min = min(
        abs(complex(b) - x0) for b in params.branch_x if complex(b) != x0
    )
    qp0 = abs(complex(params.qprime_u[j - 1]))
    return 0.35 * (qp0 * d_min) ** (1.0 / 3.0)


def numeric_residue_matrix(
    params: CurveParams, j: int, nodes: int = DEFAULT_NODES
) -> list:
    """All 16 pairing entries for the direction d/du_j in 6*pi*i units, as
    rows ``[l][k]``, via floating contour integrals only."""
    if j not in (1, 2, 3):
        raise DegenerateInput("j indexes one of the three moving parameters")
    if nodes < 1:
        raise DegenerateInput("contour quadrature needs at least one node")
    x0 = complex(params.u[j - 1])
    rho = _chart_radius(params, j)
    q = [complex(c) for c in params.q_poly.coefficients]
    qp = [complex(c) for c in params.qprime.coefficients]
    q_abs = [abs(c) for c in q]

    ys = [rho * cmath.exp(2j * cmath.pi * m / nodes) for m in range(nodes)]
    qp0 = _horner(qp, x0)
    xs = [_solve_x(q, qp, q_abs, x0 + y ** 3 / qp0, y) for y in ys]
    qpxs = [_horner(qp, x) for x in xs]

    def moment(values, power: int) -> complex:
        # (1/2 pi i) contour integral of f(y) * y**(-power-1) dy
        return sum(v * y ** (-power) for v, y in zip(values, ys)) / nodes

    # Per k, the antidifferentiated principal part of the p-form at each node.
    principal = []
    for k in range(4):
        if k == 0:
            p_values = [y / ((x - x0) * qpx) for y, x, qpx in zip(ys, xs, qpxs)]
        else:
            p_values = [2 * x ** (k - 1) / ((x - x0) * qpx) for x, qpx in zip(xs, qpxs)]
        p_minus3 = moment(p_values, -3)
        p_minus2 = moment(p_values, -2)
        p_minus1 = moment(p_values, -1)
        if abs(p_minus1) > 1e-9 * max(1.0, abs(p_minus3), abs(p_minus2)):
            raise OracleMismatch("numeric principal part has a y**-1 term")
        principal.append([-p_minus3 / (2 * y ** 2) - p_minus2 / y for y in ys])

    matrix = []
    for l in range(4):
        if l == 0:
            s_values = [3 * y / qpx for y, qpx in zip(ys, qpxs)]
        else:
            s_values = [3 * x ** (l - 1) / qpx for x, qpx in zip(xs, qpxs)]
        row = []
        for part in principal:
            residue = sum(s * a * y for s, a, y in zip(s_values, part, ys)) / nodes
            row.append(ORACLE_SIGN * residue / 3)
        matrix.append(row)
    return matrix


def numeric_residue_pairing(
    params: CurveParams, j: int, l: int, k: int, nodes: int = DEFAULT_NODES
) -> complex:
    """The (l, k) entry of :func:`numeric_residue_matrix`, which solves the
    whole contour; the benchmark's round generator (perfbench/workloads.py)
    imports it."""
    return numeric_residue_matrix(params, j, nodes)[l][k]


def residue_relative_error(exact: Scalar, numeric: complex) -> float:
    """|numeric - exact| / max(1, |exact|)."""
    reference = complex(exact)
    return abs(numeric - reference) / max(1.0, abs(reference))
