import hypothesis.strategies as st
from hypothesis import given

from trigonal4.linalg import Matrix
from trigonal4.scalars import Scalar

from conftest import apply, det, inverse, matmul, scalar_strategy
from oracles.linalg import identity, rank, row_space_rref, same_subspace

small_scalars = scalar_strategy(bound=6, max_denominator=3)


def matrix_strategy(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda m: st.lists(
                st.lists(small_scalars, min_size=m, max_size=m), min_size=n, max_size=n
            ).map(Matrix)
        )
    )


def test_kernel_of_zero_matrix():
    m = Matrix([[0, 0], [0, 0]])
    basis = m.kernel_basis()
    assert len(basis) == 2
    assert basis[0] == (Scalar.one(), Scalar.zero())
    assert basis[1] == (Scalar.zero(), Scalar.one())


def test_kernel_of_identity_is_empty():
    assert identity(3).kernel_basis() == []


def test_kernel_of_moment_row():
    m = Matrix([[1, 2, 4]])
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert v[0] + Scalar.of(2) * v[1] + Scalar.of(4) * v[2] == Scalar.zero()


@given(matrix_strategy())
def test_rank_nullity(m):
    assert rank(m) + len(m.kernel_basis()) == m.ncols


@given(matrix_strategy())
def test_kernel_vectors_annihilate(m):
    basis = m.kernel_basis()
    for v in basis:
        assert all(not e for e in apply(m, v))
    if basis:
        assert rank(Matrix(basis)) == len(basis)


def test_det_and_inverse():
    m = Matrix([[1, 2], [3, 5]])
    assert det(m) == Scalar.of(-1)
    assert matmul(m, inverse(m)) == identity(2)


def test_singular_det():
    m = Matrix([[1, 2], [2, 4]])
    assert det(m) == Scalar.zero()


def test_subspace_equality_is_basis_independent():
    a = [(Scalar.of(1), Scalar.of(0), Scalar.of(1)), (Scalar.of(0), Scalar.of(1), Scalar.of(1))]
    b = [(Scalar.of(1), Scalar.of(1), Scalar.of(2)), (Scalar.of(1), Scalar.of(-1), Scalar.of(0))]
    assert same_subspace(a, b)
    c = [(Scalar.of(1), Scalar.of(0), Scalar.of(0)), (Scalar.of(0), Scalar.of(1), Scalar.of(1))]
    assert not same_subspace(a, c)
    assert row_space_rref(a) == row_space_rref(b)
