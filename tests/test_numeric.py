import cmath

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from trigonal4.curve import validate_params
from trigonal4.deformation import TangentVector, bordered, pairing_covector
from trigonal4.errors import DegenerateInput, StructuralError
from trigonal4.numeric import (
    MAX_QUAD_NODES,
    _chart_radius,
    _horner,
    _solve_x,
    numeric_residue_matrix,
    numeric_residue_pairing,
    residue_relative_error,
)
from trigonal4.prng import SplitMix64, sample_params
from trigonal4.scalars import Scalar

from oracles.numeric import _reference_numeric_pairing, first_repeat, newton_80, newton_iterates
from oracles.polynomials import q_poly


def test_contour_matches_exact_on_nonzero_entry():
    params = validate_params(0, 2, 3)
    matrix = bordered(pairing_covector(params, TangentVector((1, 0, 0))), Scalar.zero())
    numeric = numeric_residue_matrix(params, 1, nodes=256)
    assert residue_relative_error(matrix[0][1], numeric[0][1]) < 1e-10


def test_contour_matches_on_zero_entries():
    params = validate_params(0, 2, 3)
    numeric = numeric_residue_matrix(params, 2, nodes=256)
    for (l, k) in ((0, 0), (1, 1), (2, 3)):
        assert abs(numeric[l][k]) < 1e-10


def test_contour_on_complex_parameters():
    params = validate_params(Scalar.parse("1+1*w"), 2, Scalar.parse("3+1*w"))
    matrix = bordered(pairing_covector(params, TangentVector((0, 0, 1))), Scalar.zero())
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


def test_contour_rejects_more_nodes_than_the_bound():
    # the library refuses before it builds a node list
    with pytest.raises(DegenerateInput):
        numeric_residue_matrix(validate_params(0, 2, 3), 1, MAX_QUAD_NODES + 1)


# ---------------------------------------------------------------------------
# Differential check against the per-entry realization
# ---------------------------------------------------------------------------


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
    exact = bordered(pairing_covector(params, TangentVector((0, 1, 0))), Scalar.zero())
    matrix = numeric_residue_matrix(params, 2, nodes=128)
    worst = max(
        residue_relative_error(exact[l][k], matrix[l][k])
        for l in range(4)
        for k in range(4)
    )
    assert worst < 1e-8
    with pytest.raises(StructuralError):
        _reference_numeric_pairing(params, 2, 0, 0, 128)


# ---------------------------------------------------------------------------
# The cycle shortcut against the full 80-step Newton loop
# ---------------------------------------------------------------------------


def _contour(params, j: int, nodes: int):
    """Q, Q', |Q| as complex coefficient lists and the (x_seed, y) of every
    node, as numeric_residue_matrix sets them up."""
    x0 = complex(params.u[j - 1])
    rho = _chart_radius(params, j)
    q = [complex(c) for c in q_poly(params).coefficients]
    qp = [complex(c) for c in q_poly(params).derivative().coefficients]
    qp0 = _horner(qp, x0)
    ys = [rho * cmath.exp(2j * cmath.pi * m / nodes) for m in range(nodes)]
    return q, qp, [abs(c) for c in q], [(x0 + y ** 3 / qp0, y) for y in ys]


def _outcome(solve, *args):
    try:
        x = solve(*args)
    except StructuralError as exc:
        return ("raises", str(exc))
    return (x.real.hex(), x.imag.hex())


# (seed of sample_params, j, nodes) at which some node's reference iterates
# cycle with period 2, with period 3, or repeat not at all within 80 steps.
PERIOD_2 = (1, 2, 16)
PERIOD_3 = (8, 1, 16)
NO_REPEAT = (8, 3, 16)


@example(*PERIOD_2)
@example(*PERIOD_3)
@example(*NO_REPEAT)
@given(
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.integers(min_value=1, max_value=3),
    st.sampled_from((16, 64, 128, 512)),
)
@settings(max_examples=12)
def test_solve_x_is_newton_80_bit_for_bit(seed, j, nodes):
    q, qp, q_abs, contour = _contour(sample_params(SplitMix64(seed)), j, nodes)
    cycles = set()
    for x_seed, y in contour:
        assert _outcome(_solve_x, q, qp, q_abs, x_seed, y) == _outcome(newton_80, q, qp, q_abs, x_seed, y)
        repeat = first_repeat(newton_iterates(q, qp, x_seed, y))
        if repeat is None:
            cycles.add(None)
        else:
            m, n = repeat
            # the period, and whether the 80th iterate is not x_m itself
            cycles.add((n - m, (80 - m) % (n - m) != 0))
    if (seed, j, nodes) == PERIOD_2:
        assert (2, True) in cycles
    if (seed, j, nodes) == PERIOD_3:
        assert (3, True) in cycles
    if (seed, j, nodes) == NO_REPEAT:
        assert None in cycles


def test_a_signed_zero_match_is_not_a_repeat():
    # Newton on x**3 - 2x + 2 from -0.0 cycles 0 <-> 1 exactly: x_2 = +0.0
    # equals x_0 = -0.0 in value but not in bits, so the first repeat is
    # x_3 = x_1 and the 80th iterate is +0.0.  The wide q_abs lets the
    # acceptance test pass, so that the iterate itself is compared.
    q = [complex(c) for c in (2, -2, 0, 1, 0, 0, 0)]
    qp = [complex(c) for c in (-2, 0, 3, 0, 0, 0)]
    args = (q, qp, [1e20] * 7, complex(-0.0, 0.0), 0j)
    assert first_repeat(newton_iterates(q, qp, args[3], args[4])) == (1, 3)
    assert _outcome(_solve_x, *args) == _outcome(newton_80, *args) == ("0x0.0p+0", "0x0.0p+0")


@pytest.mark.parametrize(
    "u, j",
    [
        ((0, 2, 10**62 - 1), 3),  # Q'(u_3) ~ u_3**5 past the float range
        ((0, 2, 10**4000 - 1), 3),  # u_3 itself past it
        ((0, Scalar.of(1) / 10**200, Scalar.of(2) / 10**200), 1),  # Q'(u_1) rounds to 0.0
    ],
    ids=["qprime-overflow", "u-overflow", "qprime-underflow"],
)
def test_curve_data_floats_cannot_carry_is_a_structural_error(u, j):
    with pytest.raises(StructuralError, match="float contour"):
        numeric_residue_matrix(validate_params(*u), j, 16)
