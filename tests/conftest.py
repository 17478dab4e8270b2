import hypothesis.strategies as st
import pytest
from hypothesis import settings

from trigonal4.curve import validate_params
from trigonal4.linalg import Matrix
from trigonal4.scalars import Scalar

import reachability
from oracles.scalars import fraction_scalar

settings.register_profile("default", deadline=None, max_examples=40)
settings.load_profile("default")


@pytest.fixture(scope="module")
def u023():
    return validate_params(0, 2, 3)


@pytest.fixture(scope="module")
def u248():
    # Q(0) = 64 is a perfect cube here, so (0, 4) is an exact curve point
    return validate_params(2, 4, 8)


@pytest.fixture(scope="session")
def traffic():
    """The program's traffic replayed once in a fresh interpreter without
    site (-S) (tests/reachability.py): the package code it calls, and a
    record per corpus entry of the parser, argparse and package modules."""
    return reachability.replay_in_subprocess()


def fraction_strategy(bound=20, max_denominator=8):
    return st.fractions(min_value=-bound, max_value=bound, max_denominator=max_denominator)


def scalar_strategy(bound=20, max_denominator=8):
    f = fraction_strategy(bound, max_denominator)
    return st.builds(fraction_scalar, f, f)


# Dense matrix arithmetic that only the tests use: the closed forms of the
# base (covector, cone direction, determinant) are checked against the
# moment matrix with it.


def transpose(m: Matrix) -> Matrix:
    return Matrix(tuple(zip(*m.rows))) if m.rows else Matrix(())


def _dot(a, b) -> Scalar:
    acc = Scalar.zero()
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def apply(m: Matrix, vector) -> tuple:
    vec = tuple(Scalar.of(v) for v in vector)
    assert m.ncols == len(vec), "matrix/vector dimension mismatch"
    return tuple(_dot(row, vec) for row in m.rows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    assert a.ncols == len(b.rows), "matrix dimension mismatch"
    cols = transpose(b).rows
    return Matrix(tuple(tuple(_dot(row, col) for col in cols) for row in a.rows))


def det(m: Matrix) -> Scalar:
    n = len(m.rows)
    assert n == m.ncols, "determinant of a non-square matrix"
    rows = [list(row) for row in m.rows]
    value = Scalar.one()
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot_row is None:
            return Scalar.zero()
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            value = -value
        value = value * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return value


def inverse(m: Matrix) -> Matrix:
    n = len(m.rows)
    assert n == m.ncols, "inverse of a non-square matrix"
    augmented = Matrix(
        tuple(
            tuple(row) + tuple(Scalar.one() if i == j else Scalar.zero() for j in range(n))
            for i, row in enumerate(m.rows)
        )
    )
    rref, pivots = augmented.rref()
    assert pivots[:n] == tuple(range(n)), "singular matrix"
    return Matrix(tuple(row[n:] for row in rref.rows))


def direction_with_covector(params, c):
    """The direction whose covector is c, (A^T)^-1 c with A the moment matrix:
    a certificate is built from a direction, so a kernel test of a chosen c
    goes through it."""
    from trigonal4.deformation import TangentVector

    from oracles.deformation import moment_matrix

    return TangentVector(apply(inverse(transpose(moment_matrix(params))), c))
