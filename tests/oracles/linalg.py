"""Rank, identity and row spaces over Q(w), on linalg.Matrix's reduced row
echelon form: subspace equality decides the kernels and ideals the tests
compare."""

from __future__ import annotations

from trigonal4.linalg import Matrix
from trigonal4.scalars import Scalar


def identity(n: int) -> Matrix:
    return Matrix(tuple(tuple(Scalar.one() if i == j else Scalar.zero() for j in range(n)) for i in range(n)))


def rank(m: Matrix) -> int:
    return len(m.rref()[1])


def row_space_rref(vectors: list) -> tuple[tuple, ...]:
    """Canonical form of the span of the given vectors (RREF rows, zero rows
    dropped); equal spans give equal output, so this decides subspace equality."""
    vectors = [tuple(Scalar.of(v) for v in vec) for vec in vectors]
    if not vectors:
        return ()
    rref, pivots = Matrix(tuple(vectors)).rref()
    return tuple(rref.rows[: len(pivots)])


def same_subspace(vectors_a: list, vectors_b: list) -> bool:
    return row_space_rref(vectors_a) == row_space_rref(vectors_b)
