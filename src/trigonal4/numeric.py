"""Floating cross-check of the residue pairings by contour quadrature.

Strictly an oracle: nothing exact ever consumes these floats.  The pairing
integrand is evaluated on a circle |y| = rho inside the branch chart, with
x(y) recovered by complex Newton iteration from the curve equation (no
exact series data enters).  Trapezoidal quadrature on a circle converges
exponentially for analytic integrands, so a few hundred nodes deliver far
better than the 1e-8 comparison tolerance.

One request does each piece of float work once: the coefficients of Q and
Q' are converted to complex once, the contour (the nodes y, the Newton
roots x, Q'(x), and the powers of y and x by the ** their uses computed) is
solved once per (params, j, nodes), and the principal-part moments once per
k; all 16 entries are read off that.  Curve data past the float range, or a
zero divisor, is a StructuralError, as a failed Newton solve is.  A Newton
root is accepted by a backward-error test, |Q(x) - y^3| <= 1e-12 * max(1, |y^3|,
sum |c_i| |x|^i): Horner's rule evaluates Q only to within a few rounding
errors of the largest terms it sums, so a converged root cannot be held to
a residual smaller than that.

Newton's iteration runs 80 steps, or stops at the first iterate with
|Q(x) - y^3| < 1e-30, which a converged float root rarely reaches: the
iterates instead settle into a cycle of a few rounding-level points.  The
step is a pure function of the iterate's bits (Q, Q' and y are fixed
within one solve), so once x_n repeats x_m bit for bit (m < n), the
iterates repeat with period n - m, and the 80th is x_{m + (80-m) mod (n-m)}.
The solve stops there and returns that iterate, the very float the full
80 steps would reach.  Iterates are looked up by value, and a match is a
repeat only when the hex of both parts agrees, so 0.0 and -0.0 stay
distinct; a NaN never matches, and every such x fails the acceptance test.
"""

from __future__ import annotations

import cmath

from .curve import CurveParams
from .deformation import DEFAULT_NODES, MAX_QUAD_NODES, ORACLE_SIGN
from .errors import DegenerateInput, OracleMismatch, StructuralError
from .scalars import Scalar


def _horner(coeffs: list, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _solve_x(q: list, qp: list, q_abs: list, x_seed: complex, y: complex) -> complex:
    """Newton solve of Q(x) = y**3 starting near the branch coordinate: the
    80th iterate, or the first with |Q(x) - y^3| < 1e-30.  Once an iterate
    repeats bit for bit, x_n == x_m with m < n, the 80th is read off the
    cycle instead of stepped to."""
    target = y ** 3
    # _horner written out, with its float operations in its order
    (q0, q1, q2, q3, q4, q5, q6), (p0, p1, p2, p3, p4, p5) = q, qp
    x = x_seed
    seen = {}
    history = []
    for n in range(80):
        m = seen.get(x)
        if m is not None and (x.real.hex(), x.imag.hex()) == (history[m].real.hex(), history[m].imag.hex()):
            x = history[m + (80 - m) % (n - m)]
            break
        seen[x] = n  # over a match in value only: a repeat missed costs steps, not the result
        history.append(x)
        fx = ((((((0j * x + q6) * x + q5) * x + q4) * x + q3) * x + q2) * x + q1) * x + q0 - target
        if abs(fx) < 1e-30:
            break
        x -= fx / ((((((0j * x + p5) * x + p4) * x + p3) * x + p2) * x + p1) * x + p0)
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
) -> tuple:
    """All 16 pairing entries for the direction d/du_j in 6*pi*i units, as
    a tuple of four row tuples ``[l][k]`` (the shape of bordered and
    residue_matrix), via floating contour integrals only."""
    if j not in (1, 2, 3):
        raise DegenerateInput("j indexes one of the three moving parameters")
    if nodes < 1:
        raise DegenerateInput("contour quadrature needs at least one node")
    if nodes > MAX_QUAD_NODES:
        raise DegenerateInput(f"contour quadrature takes at most {MAX_QUAD_NODES} nodes")
    try:
        return _contour_matrix(params, j, nodes)
    except ArithmeticError:  # a value past the float range, or a zero divisor
        raise StructuralError("the float contour cannot represent this curve") from None


def _contour_matrix(params: CurveParams, j: int, nodes: int) -> tuple:
    x0 = complex(params.u[j - 1])
    rho = _chart_radius(params, j)
    q_exact = params.q_coefficients
    q = [complex(c) for c in q_exact]
    qp = [complex(k * c) for k, c in enumerate(q_exact) if k]
    q_abs = [abs(c) for c in q]

    ys = [rho * cmath.exp(2j * cmath.pi * m / nodes) for m in range(nodes)]
    y_powers = {p: [y ** p for y in ys] for p in (1, 2, 3)}
    qp0 = _horner(qp, x0)
    xs = [_solve_x(q, qp, q_abs, x0 + y3 / qp0, y) for y, y3 in zip(ys, y_powers[3])]
    qpxs = [_horner(qp, x) for x in xs]
    x_powers = [[x ** p for x in xs] for p in range(3)]

    def moment(values, power: int) -> complex:
        # (1/2 pi i) contour integral of f(y) * y**(-power-1) dy
        return sum(v * yp for v, yp in zip(values, y_powers[-power])) / nodes

    # Per k, the antidifferentiated principal part of the p-form at each node.
    principal = []
    for k in range(4):
        if k == 0:
            p_values = [y / ((x - x0) * qpx) for y, x, qpx in zip(ys, xs, qpxs)]
        else:
            p_values = [2 * xp / ((x - x0) * qpx) for xp, x, qpx in zip(x_powers[k - 1], xs, qpxs)]
        p_minus3 = moment(p_values, -3)
        p_minus2 = moment(p_values, -2)
        p_minus1 = moment(p_values, -1)
        if abs(p_minus1) > 1e-9 * max(1.0, abs(p_minus3), abs(p_minus2)):
            raise OracleMismatch("numeric principal part has a y**-1 term")
        principal.append([-p_minus3 / (2 * y2) - p_minus2 / y for y, y2 in zip(ys, y_powers[2])])

    matrix = []
    for l in range(4):
        if l == 0:
            s_values = [3 * y / qpx for y, qpx in zip(ys, qpxs)]
        else:
            s_values = [3 * xp / qpx for xp, qpx in zip(x_powers[l - 1], qpxs)]
        row = []
        for part in principal:
            residue = sum(s * a * y for s, a, y in zip(s_values, part, ys)) / nodes
            row.append(ORACLE_SIGN * residue / 3)
        matrix.append(tuple(row))
    return tuple(matrix)


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
