"""References for the floating contour cross-check: the 80-step Newton loop
that numeric._solve_x shortcuts once its iterates cycle, that loop's iterate
history, and one pairing entry from its own contour solve, converting each
Scalar coefficient to complex at every use."""

from __future__ import annotations

import cmath

from trigonal4.deformation import ORACLE_SIGN
from trigonal4.errors import StructuralError
from trigonal4.numeric import _chart_radius, _horner

from oracles.polynomials import q_poly


def newton_80(q: list, qp: list, q_abs: list, x_seed: complex, y: complex) -> complex:
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


def newton_iterates(q: list, qp: list, x_seed: complex, y: complex) -> list:
    """The iterates that newton_80 evaluates Q at, in order."""
    target = y ** 3
    x = x_seed
    history = []
    for _ in range(80):
        history.append(x)
        fx = _horner(q, x) - target
        if abs(fx) < 1e-30:
            break
        x -= fx / _horner(qp, x)
    return history


def first_repeat(history: list) -> tuple | None:
    """(m, n) for the first iterate x_n that repeats an earlier x_m bit for
    bit, or None when no iterate repeats."""
    seen = {}
    for n, x in enumerate(history):
        key = (x.real.hex(), x.imag.hex())
        if key in seen:
            return seen[key], n
        seen[key] = n
    return None


def _poly_complex(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
    return acc


def _solve_x(params, x_seed: complex, y: complex) -> complex:
    q = q_poly(params).coefficients
    qp = q_poly(params).derivative().coefficients
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


def _reference_numeric_pairing(params, j: int, l: int, k: int, nodes: int) -> complex:
    """One entry from its own contour solve, converting each Scalar
    coefficient to complex at every use."""
    x0 = complex(params.u[j - 1])
    rho = _chart_radius(params, j)
    qp = q_poly(params).derivative().coefficients

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
