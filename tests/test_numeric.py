import cmath

import pytest

from trigonal4.curve import validate_params
from trigonal4.deformation import ORACLE_SIGN, TangentVector, pairing_matrix
from trigonal4.errors import DegenerateInput, StructuralError
from trigonal4.numeric import (
    _chart_radius,
    numeric_residue_matrix,
    numeric_residue_pairing,
    residue_relative_error,
)
from trigonal4.prng import SplitMix64, sample_params
from trigonal4.scalars import Scalar


def test_contour_matches_exact_on_nonzero_entry():
    params = validate_params(0, 2, 3)
    matrix = pairing_matrix(params, TangentVector((1, 0, 0)))
    numeric = numeric_residue_matrix(params, 1, nodes=256)
    assert residue_relative_error(matrix[0][1], numeric[0][1]) < 1e-10


def test_contour_matches_on_zero_entries():
    params = validate_params(0, 2, 3)
    numeric = numeric_residue_matrix(params, 2, nodes=256)
    for (l, k) in ((0, 0), (1, 1), (2, 3)):
        assert abs(numeric[l][k]) < 1e-10


def test_contour_on_complex_parameters():
    params = validate_params(Scalar(1, 1), 2, Scalar(3, 1))
    matrix = pairing_matrix(params, TangentVector((0, 0, 1)))
    numeric = numeric_residue_matrix(params, 3, nodes=256)
    assert residue_relative_error(matrix[2][0], numeric[2][0]) < 1e-10


def test_pairing_is_the_matching_table_entry():
    params = validate_params(0, 2, 3)
    table = numeric_residue_matrix(params, 3, nodes=64)
    assert numeric_residue_pairing(params, 3, 2, 0, nodes=64) == table[2][0]


def test_contour_rejects_a_fourth_parameter():
    params = validate_params(0, 2, 3)
    for j in (0, 4):
        with pytest.raises(DegenerateInput):
            numeric_residue_matrix(params, j)


# ---------------------------------------------------------------------------
# Differential check against the per-entry realization
# ---------------------------------------------------------------------------


def _poly_complex(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
    return acc


def _solve_x(params, x_seed: complex, y: complex) -> complex:
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


def _reference_numeric_pairing(params, j: int, l: int, k: int, nodes: int) -> complex:
    """One entry from its own contour solve, converting each Scalar
    coefficient to complex at every use."""
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


DIFFERENTIAL_CASES = [
    pytest.param((0, 2, 3), 1, id="u023-j1"),
    pytest.param((0, 2, 3), 2, id="u023-j2"),
    pytest.param((0, 2, 3), 3, id="u023-j3"),
    pytest.param(None, 2, id="seeded-j2"),
]


@pytest.mark.parametrize("u,j", DIFFERENTIAL_CASES)
def test_matrix_equals_per_entry_reference(u, j):
    params = validate_params(*u) if u else sample_params(SplitMix64(20261018))
    matrix = numeric_residue_matrix(params, j, nodes=64)
    for l in range(4):
        for k in range(4):
            # exact float equality: the shared contour does the same float
            # operations in the same order as the per-entry solve
            assert matrix[l][k] == _reference_numeric_pairing(params, j, l, k, 64)


def test_newton_accepts_roots_at_the_rounding_level_of_q():
    # Here sum |c_i| |x|^i is ~1e5, so Horner's residual at a converged root
    # exceeds 1e-12 * max(1, |y^3|); the per-entry reference rejects the
    # contour that the backward-error test accepts.
    params = validate_params(*(Scalar.parse(t) for t in ("3+-3*w", "3+-8/3*w", "5+5/2*w")))
    exact = pairing_matrix(params, TangentVector((0, 1, 0)))
    matrix = numeric_residue_matrix(params, 2, nodes=128)
    worst = max(
        residue_relative_error(exact[l][k], matrix[l][k])
        for l in range(4)
        for k in range(4)
    )
    assert worst < 1e-8
    with pytest.raises(StructuralError):
        _reference_numeric_pairing(params, 2, 0, 0, 128)
