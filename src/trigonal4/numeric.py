"""Floating cross-check of the residue pairings by contour quadrature.

Strictly an oracle: nothing exact ever consumes these floats.  The pairing
integrand is evaluated on a circle |y| = rho inside the branch chart, with
x(y) recovered by complex Newton iteration from the curve equation (no
exact series data enters).  Trapezoidal quadrature on a circle converges
exponentially for analytic integrands, so a few hundred nodes deliver far
better than the 1e-8 comparison tolerance.
"""

from __future__ import annotations

import cmath

from .curve import CurveParams
from .deformation import ORACLE_SIGN
from .errors import DegenerateInput, StructuralError
from .scalars import Scalar

DEFAULT_NODES = 512


def _poly_complex(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
    return acc


def _solve_x(params: CurveParams, x_seed: complex, y: complex) -> complex:
    """Newton solve of Q(x) = y**3 starting near the branch coordinate."""
    q = params.q_poly.coefficients
    qp = params.qprime.coefficients
    target = y ** 3
    x = x_seed
    for _ in range(80):
        fx = _poly_complex(q, x) - target
        if abs(fx) < 1e-30:
            break
        x -= fx / _poly_complex(qp, x)
    if abs(_poly_complex(q, x) - target) > 1e-12 * max(1.0, abs(target)):
        raise StructuralError("Newton iteration failed on the contour")
    return x


def _chart_radius(params: CurveParams, j: int) -> float:
    x0 = complex(params.u[j - 1])
    d_min = min(
        abs(complex(b) - x0) for b in params.branch_x if complex(b) != x0
    )
    qp0 = abs(complex(params.qprime_at(params.u[j - 1])))
    return 0.35 * (qp0 * d_min) ** (1.0 / 3.0)


def numeric_residue_pairing(
    params: CurveParams, j: int, l: int, k: int, nodes: int = DEFAULT_NODES
) -> complex:
    """The (l, k) pairing entry for the direction d/du_j in 6*pi*i units,
    via floating contour integrals only."""
    if nodes < 1:
        raise DegenerateInput("contour quadrature needs at least one node")
    x0 = complex(params.u[j - 1])
    rho = _chart_radius(params, j)
    qp = params.qprime.coefficients

    ys = [rho * cmath.exp(2j * cmath.pi * m / nodes) for m in range(nodes)]
    qp0 = _poly_complex(qp, x0)
    xs = [_solve_x(params, x0 + y ** 3 / qp0, y) for y in ys]
    qpxs = [_poly_complex(qp, x) for x in xs]

    if l == 0:
        s_values = [3 * y / qpx for y, qpx in zip(ys, qpxs)]
    else:
        s_values = [3 * x ** (l - 1) / qpx for x, qpx in zip(xs, qpxs)]
    if k == 0:
        p_values = [y / ((x - x0) * qpx) for y, x, qpx in zip(ys, xs, qpxs)]
    else:
        p_values = [2 * x ** (k - 1) / ((x - x0) * qpx) for x, qpx in zip(xs, qpxs)]

    def moment(values, power: int) -> complex:
        # (1/2 pi i) contour integral of f(y) * y**(-power-1) dy
        return sum(v * y ** (-power) for v, y in zip(values, ys)) / nodes

    p_minus3 = moment(p_values, -3)
    p_minus2 = moment(p_values, -2)
    p_minus1 = moment(p_values, -1)
    if abs(p_minus1) > 1e-9 * max(1.0, abs(p_minus3), abs(p_minus2)):
        raise StructuralError("numeric principal part has a y**-1 term")

    residue = (
        sum(
            s * (-p_minus3 / (2 * y ** 2) - p_minus2 / y) * y
            for s, y in zip(s_values, ys)
        )
        / nodes
    )
    return ORACLE_SIGN * residue / 3


def residue_relative_error(exact: Scalar, numeric: complex) -> float:
    """|numeric - exact| / max(1, |exact|)."""
    reference = complex(exact)
    return abs(numeric - reference) / max(1.0, abs(reference))
