"""Exact linear algebra over Q(w): rank, kernels and row spaces.

Plain fraction-based Gauss-Jordan elimination; matrices here are tiny
(at most a few hundred rows), so no pivoting strategy beyond "first
nonzero" is needed, and exactness makes every rank certificate sound.
"""

from __future__ import annotations

from .errors import DegenerateInput
from .scalars import Scalar


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(Scalar.of(e) for e in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DegenerateInput("ragged matrix")
        self.rows = rows

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.rows,))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            tuple(
                tuple(Scalar.one() if i == j else Scalar.zero() for j in range(n))
                for i in range(n)
            )
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot column indices."""
        m = [list(row) for row in self.rows]
        nrows, ncols = len(m), self.ncols
        pivots = []
        r = 0
        for c in range(ncols):
            pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = m[r][c].inverse()
            m[r] = [e * inv for e in m[r]]
            for i in range(nrows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return Matrix(tuple(tuple(row) for row in m)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[tuple]:
        """Exact basis of the right null space, one vector per free column."""
        rref, pivots = self.rref()
        ncols = self.ncols
        free = [c for c in range(ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Scalar.zero()] * ncols
            vec[fc] = Scalar.one()
            for r, pc in enumerate(pivots):
                vec[pc] = -rref.rows[r][fc]
            basis.append(tuple(vec))
        return basis


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
