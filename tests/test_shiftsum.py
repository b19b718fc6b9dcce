import numpy as np
import pytest
from conftest import cgauss

from syspencils import (
    BlockDims,
    DimensionError,
    block_shift_sum,
    col_shift_sum,
    row_shift_sum,
)


def test_col_shift_sum_identity_and_zero():
    X = np.eye(2)
    Z = np.zeros((2, 2))
    assert np.array_equal(col_shift_sum(X, Z, 1), np.array([[1, 0, 0], [0, 1, 0]]))
    assert np.array_equal(col_shift_sum(Z, X, 1), np.array([[0, 1, 0], [0, 0, 1]]))


def test_col_shift_sum_general_scalar_blocks():
    X = np.array([[1, 2], [3, 4]])
    Y = np.array([[5, 6], [7, 8]])
    expected = np.array([[1, 2 + 5, 6], [3, 4 + 7, 8]])
    assert np.array_equal(col_shift_sum(X, Y, 1), expected)


def test_row_shift_sum_identity_and_zero():
    X = np.eye(2)
    Z = np.zeros((2, 2))
    assert np.array_equal(row_shift_sum(X, Z, 1), np.array([[1, 0], [0, 1], [0, 0]]))
    assert np.array_equal(row_shift_sum(Z, X, 1), np.array([[0, 0], [1, 0], [0, 1]]))


def test_row_shift_is_transpose_of_col_shift():
    rng = np.random.default_rng(0)
    X = cgauss(rng, 4, 4)
    Y = cgauss(rng, 4, 4)
    a = row_shift_sum(X.T, Y.T, 2)
    b = col_shift_sum(X, Y, 2).T
    assert np.allclose(a, b)


def test_grid_mismatch_raises():
    with pytest.raises(DimensionError):
        col_shift_sum(np.eye(2), np.eye(4), 1)
    with pytest.raises(DimensionError):
        col_shift_sum(np.eye(3), np.eye(3), 2)
    with pytest.raises(DimensionError):
        row_shift_sum(np.eye(3), np.eye(3), 2)


def test_block_shift_sum_r1_example(r1):
    # X = I_2, Y = [[-2,-1],[1,0]] at dims (1,1,1,1): frozen by hand from
    # the one-block-per-quadrant definition
    Z = block_shift_sum(np.eye(2), np.array([[-2.0, -1.0], [1.0, 0.0]]),
                        BlockDims(1, 1, 1, 1))
    assert np.array_equal(Z, np.array([[1, -2, 0, -1], [0, 1, 1, 0]]))


def test_block_shift_sum_zero_and_bilinear():
    dims = BlockDims(2, 2, 1, 2)
    s = dims.size
    assert np.array_equal(block_shift_sum(np.zeros((s, s)), np.zeros((s, s)), dims),
                          np.zeros((s, (dims.m + 1) * dims.n + (dims.k + 1) * dims.r)))
    rng = np.random.default_rng(1)
    X1, X2, Y1, Y2 = (cgauss(rng, s, s) for _ in range(4))
    lhs = block_shift_sum(X1 + X2, Y1 + Y2, dims)
    rhs = block_shift_sum(X1, Y1, dims) + block_shift_sum(X2, Y2, dims)
    assert np.allclose(lhs, rhs)


@pytest.mark.parametrize("m, n, k, r", [(1, 1, 1, 1), (1, 3, 1, 2), (2, 2, 1, 3),
                                        (3, 1, 2, 2), (2, 4, 3, 1)])
def test_block_shift_sum_is_the_column_shift_sum_of_each_partition(m, n, k, r):
    dims = BlockDims(m, n, k, r)
    rng = np.random.default_rng(m * 1000 + n * 100 + k * 10 + r)
    X, Y = cgauss(rng, dims.size, dims.size), cgauss(rng, dims.size, dims.size)
    t = dims.top
    expected = np.hstack([col_shift_sum(X[:, :t], Y[:, :t], n),
                          col_shift_sum(X[:, t:], Y[:, t:], r)])
    got = block_shift_sum(X, Y, dims)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
