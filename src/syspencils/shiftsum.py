"""Shifted sums and the block column shifted sum.

These are the combinatorial operations that turn the ansatz identities of
the pencil spaces into linear conditions on the pencil coefficients
(X, Y).  The column shifted sum of two block matrices pads each operand
with one zero block column and adds them with an offset of one block; the
row shifted sum is the transpose analogue.  The four-quadrant version
operates on matrices partitioned according to a :class:`BlockDims`.
"""

from __future__ import annotations

import numpy as np

from .core import BlockDims
from .errors import DimensionError

__all__ = [
    "col_shift_sum",
    "row_shift_sum",
    "block_shift_sum",
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


def block_shift_sum(X: np.ndarray, Y: np.ndarray, dims: BlockDims) -> np.ndarray:
    """Four-quadrant column shifted sum of (mn+kr)-sized matrices.

    Each quadrant is shifted by its own column block size: the left
    quadrants by n, the right quadrants by r.  The result is
    (mn+kr) x ((m+1)n + (k+1)r), partitioned the same way: one new array whose
    column partitions are, entry for entry, :func:`col_shift_sum` of those of X and Y.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    s = dims.size
    if X.shape != (s, s) or Y.shape != (s, s):
        raise DimensionError(f"expected {s}x{s} operands for dims {dims}")
    t, n, r = dims.top, dims.n, dims.r
    out = np.zeros((s, s + n + r), dtype=complex)
    out[:, :t] += X[:, :t]
    out[:, n:t + n] += Y[:, :t]
    out[:, t + n:s + n] += X[:, t:]
    out[:, t + n + r:] += Y[:, t:]
    return out
