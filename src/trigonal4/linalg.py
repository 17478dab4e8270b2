"""Exact linear algebra over Q(w): reduced row echelon forms and kernels.

Plain Gauss-Jordan elimination; matrices here are tiny (at most a few
hundred rows), so no pivoting strategy beyond "first nonzero" is needed,
and exactness makes every kernel exact.  No command builds a Matrix: it
stays because perfbench/layertrace.py counts kernel_basis calls, and the
rank and row-space oracles of tests/oracles/linalg.py build on it.
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
