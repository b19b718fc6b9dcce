"""Shifted sums, the block column shifted sum and block transposition.

These are the combinatorial operations that turn the ansatz identities of
the pencil spaces into linear conditions on the pencil coefficients
(X, Y).  The column shifted sum of two block matrices pads each operand
with one zero block column and adds them with an offset of one block; the
row shifted sum is the transpose analogue.  The four-quadrant version
operates on matrices partitioned according to a :class:`BlockDims`.
"""

from __future__ import annotations

import numpy as np

from .core import BlockDims, max_entry
from .errors import DimensionError

__all__ = [
    "col_shift_sum",
    "row_shift_sum",
    "block_shift_sum",
    "block_transpose",
    "is_block_symmetric",
]


def col_shift_sum(X: np.ndarray, Y: np.ndarray, width: int) -> np.ndarray:
    """Column shifted sum: ``[X | 0] + [0 | Y]`` with one block column of ``width``."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.shape != Y.shape:
        raise DimensionError(f"operands differ in shape: {X.shape} vs {Y.shape}")
    rows, cols = X.shape
    if cols % width:
        raise DimensionError(f"column count {cols} not a multiple of block width {width}")
    out = np.zeros((rows, cols + width), dtype=complex)
    out[:, :cols] += X
    out[:, width:] += Y
    return out


def row_shift_sum(X: np.ndarray, Y: np.ndarray, height: int) -> np.ndarray:
    """Row shifted sum: ``[X ; 0] + [0 ; Y]``, the transpose of the column one."""
    return col_shift_sum(np.transpose(X), np.transpose(Y), height).T


def _quadrants(M: np.ndarray, dims: BlockDims):
    t = dims.top
    return M[:t, :t], M[:t, t:], M[t:, :t], M[t:, t:]


def block_shift_sum(X: np.ndarray, Y: np.ndarray, dims: BlockDims) -> np.ndarray:
    """Four-quadrant column shifted sum of (mn+kr)-sized matrices.

    Each quadrant is shifted by its own column block size: the left
    quadrants by n, the right quadrants by r.  The result is
    (mn+kr) x ((m+1)n + (k+1)r), partitioned the same way.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    s = dims.size
    if X.shape != (s, s) or Y.shape != (s, s):
        raise DimensionError(f"expected {s}x{s} operands for dims {dims}")
    t = dims.top
    return np.hstack([col_shift_sum(X[:, :t], Y[:, :t], dims.n),
                      col_shift_sum(X[:, t:], Y[:, t:], dims.r)])


def _grid_transpose(M: np.ndarray, grid: int, blk: int) -> np.ndarray:
    # move blocks to transposed grid positions without transposing contents
    return M.reshape(grid, blk, grid, blk).transpose(2, 1, 0, 3).reshape(M.shape)


def _kron_factor(Q: np.ndarray, grid_shape, blk_shape):
    """Split ``Q = G kron X`` into grid pattern G and block content X.

    Uses the dominant factor of the Kronecker rearrangement; exact when the
    quadrant has grid-rank one (the only case the block transpose of a
    system pencil is defined for).  The pattern is normalized to unit
    Frobenius norm with its largest entry real positive, so repeated
    factorizations are reproducible.  A zero quadrant yields zero factors.
    """
    gr, gc = grid_shape
    br, bc = blk_shape
    # row i * gc + j of the rearrangement is block (i, j) of Q, raveled
    R = Q.reshape(gr, br, gc, bc).transpose(0, 2, 1, 3).reshape(gr * gc, br * bc)
    scale = np.linalg.norm(R)
    if scale == 0.0:
        return np.zeros((gr, gc), dtype=complex), np.zeros((br, bc), dtype=complex)
    U, sv, Vh = np.linalg.svd(R, full_matrices=False)
    g = U[:, 0]
    idx = int(np.argmax(np.abs(g)))
    phase = g[idx] / abs(g[idx])
    g = g / phase
    # rank-1: R[i, :] = sv[0] * u_i * Vh[0, :], so the content row is
    # sv[0] * Vh[0, :] rescaled by the extracted phase
    content = sv[0] * phase * Vh[0, :]
    return g.reshape(gr, gc), content.reshape(br, bc)


def block_transpose(A: np.ndarray, dims: BlockDims) -> np.ndarray:
    """Block transpose of a four-quadrant system pencil coefficient.

    The diagonal quadrants have their grids transposed in place (blocks
    move by grid index, contents stay as they are).  The off-diagonal
    quadrants carry a grid pattern tensor a fixed content, ``u s^T kron X``
    on top and ``z v^T kron Y`` below; the block transpose swaps the grid
    patterns (transposed) while each quadrant keeps its own content:
    ``v z^T kron X`` on top and ``s u^T kron Y`` below.  The operation is
    an involution on matrices whose off-diagonal quadrants have grid rank
    one, which is the class it is defined for.
    """
    A = np.asarray(A, dtype=complex)
    s = dims.size
    if A.shape != (s, s):
        raise DimensionError(f"expected {s}x{s} matrix for dims {dims}")
    m, n, k, r = dims.m, dims.n, dims.k, dims.r
    TL, TR, BL, BR = _quadrants(A, dims)
    out = np.zeros_like(A)
    t = dims.top
    out[:t, :t] = _grid_transpose(TL, m, n)
    out[t:, t:] = _grid_transpose(BR, k, r)
    g_tr, x_tr = _kron_factor(TR, (m, k), (n, r))
    g_bl, y_bl = _kron_factor(BL, (k, m), (r, n))
    # A zero quadrant has no pattern of its own; inherit the partner's so
    # the swap stays involutive and pencils with B = 0 or C = 0 keep their
    # block symmetry.
    if not np.any(g_tr) and np.any(g_bl):
        g_tr = g_bl.T
    if not np.any(g_bl) and np.any(g_tr):
        g_bl = g_tr.T
    out[:t, t:] = np.kron(g_bl.T, x_tr)
    out[t:, :t] = np.kron(g_tr.T, y_bl)
    return out


def is_block_symmetric(A: np.ndarray, dims: BlockDims) -> bool:
    """True when ``A`` equals its block transpose to ``1e-10 max|A|`` in max norm."""
    return max_entry(A - block_transpose(A, dims)) <= 1e-10 * max_entry(A)
