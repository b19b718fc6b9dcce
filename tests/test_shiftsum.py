import numpy as np
import pytest
from conftest import cgauss, random_realization

from syspencils import (
    BlockDims,
    DimensionError,
    block_shift_sum,
    block_transpose,
    build_C1,
    build_DL,
    col_shift_sum,
    is_block_symmetric,
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


def test_block_transpose_fixed_point_on_symmetric_grids():
    dims = BlockDims(2, 1, 2, 1)
    rng = np.random.default_rng(2)
    top = cgauss(rng, 2, 2)
    top = top + top.T  # symmetric 1x1-block grid
    bot = cgauss(rng, 2, 2)
    bot = bot + bot.T
    M = np.zeros((4, 4), dtype=complex)
    M[:2, :2] = top
    M[2:, 2:] = bot
    assert np.allclose(block_transpose(M, dims), M)


def _structured_random(rng, dims):
    mn, kr = dims.top, dims.bottom
    M = np.zeros((dims.size, dims.size), dtype=complex)
    M[:mn, :mn] = cgauss(rng, mn, mn)
    M[mn:, mn:] = cgauss(rng, kr, kr)
    M[:mn, mn:] = np.kron(np.outer(cgauss(rng, dims.m), cgauss(rng, dims.k)),
                          cgauss(rng, dims.n, dims.r))
    M[mn:, :mn] = np.kron(np.outer(cgauss(rng, dims.k), cgauss(rng, dims.m)),
                          cgauss(rng, dims.r, dims.n))
    return M


def test_block_transpose_involution():
    # off-diagonal quadrants must be grid-rank-one, the class on which the
    # operation is defined
    rng = np.random.default_rng(3)
    for dims in (BlockDims(2, 2, 2, 1), BlockDims(3, 1, 2, 2), BlockDims(1, 2, 3, 1)):
        M = _structured_random(rng, dims)
        assert np.allclose(block_transpose(block_transpose(M, dims), dims), M)


def test_block_transpose_moves_grid_blocks(r2):
    # m = 2, n = 1, k = 1, r = 1: top-left grid position (2, 1) moves to (1, 2)
    P = build_C1(r2)
    dims = BlockDims(2, 1, 1, 1)
    BT = block_transpose(P.Y, dims)
    assert BT[0, 1] == P.Y[1, 0]
    assert BT[1, 0] == P.Y[0, 1]


def test_is_block_symmetric():
    dims = BlockDims(2, 1, 1, 1)
    assert is_block_symmetric(np.eye(3), dims)
    rng = np.random.default_rng(4)
    R = random_realization(rng, 2, 1, 1, 1)
    assert not is_block_symmetric(build_C1(R).Y, dims)
    # the tolerance is at the scale of the matrix itself
    assert not is_block_symmetric(1e-11 * build_C1(R).Y, dims)


def test_dl_pencil_is_block_symmetric():
    rng = np.random.default_rng(5)
    for (m, n, k, r) in ((2, 2, 2, 1), (3, 1, 2, 2), (1, 2, 3, 1)):
        R = random_realization(rng, m, n, k, r)
        P = build_DL(R)
        dims = BlockDims(m, n, k, r)
        assert is_block_symmetric(P.X, dims)
        assert is_block_symmetric(P.Y, dims)


def test_block_transpose_maps_second_companion_to_first():
    # the grid transpose swaps the column-stacked companion layout into the
    # row-stacked one; the off-diagonal pattern swap moves B and C along
    from syspencils import build_C2

    rng = np.random.default_rng(6)
    for (m, n, k, r) in ((2, 2, 2, 1), (3, 1, 3, 2), (2, 2, 1, 1)):
        R = random_realization(rng, m, n, k, r)
        dims = BlockDims(m, n, k, r)
        C2 = build_C2(R)
        C1 = build_C1(R)
        assert np.allclose(block_transpose(C2.X, dims), C1.X, atol=1e-13)
        assert np.allclose(block_transpose(C2.Y, dims), C1.Y, atol=1e-13)
