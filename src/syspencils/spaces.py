"""Ansatz-vector pencil spaces for system matrices and transfer functions.

A pencil ``L(lambda) = lambda X + Y`` of side mn + kr belongs to the first
ansatz space of a realization when its block column shifted sum reproduces
the coefficient rows of A and D tensored with a pair of ansatz vectors
(v, w), with the constant blocks B and C pinned to the trailing block
column of the off-diagonal quadrants.  The second space is the transpose
dual; their intersection is a single pencil (up to scale), which is
block-symmetric and, for symmetric or Hermitian data, has an elementwise
structured representative.

Sign convention
---------------
The off-diagonal blocks are fixed as ``-v e_k^T kron B`` (top right) and
``+w e_m^T kron C`` (bottom left); this is the convention under which the
defining residual identities hold exactly, and :func:`residual_ansatz` is
the single source of truth for it.  Second-space pencils are transposes of
first-space pencils of the sign-normalized transpose realization
(A^T, -C^T, -B^T, D^T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BlockDims,
    Realization,
    check_finite,
    eval_polymat,
    is_hermitian_realization,
    is_symmetric_realization,
    lambda_vector,
    padded_identity,
    realization_scale,
    solve_state,
    solve_state_left,
    transpose_realization,
)
from .errors import DegenerateFit, DimensionError, NotAMember, StructureError
from .shiftsum import block_shift_sum

__all__ = [
    "SPACE_L1S",
    "SPACE_L1G",
    "SPACE_L2G",
    "SPACE_DL",
    "SPACE_SYM",
    "SPACE_HERM",
    "SPACES",
    "AnsatzPencil",
    "build_pencil_L1",
    "build_pencil_L2",
    "build_C1",
    "build_C2",
    "build_DL",
    "build_symmetric",
    "build_hermitian",
    "membership",
    "dim_space",
    "sample_space",
    "residual_ansatz",
]

SPACE_L1S = "l1s"
SPACE_L1G = "l1g"
SPACE_L2G = "l2g"
SPACE_DL = "dl"
SPACE_SYM = "sym"
SPACE_HERM = "herm"
SPACES = frozenset({SPACE_L1S, SPACE_L1G, SPACE_L2G, SPACE_DL, SPACE_SYM, SPACE_HERM})

#: Default relative tolerance of the membership test.
MEMBERSHIP_RTOL = 1e-8


def _as_vector(v, length: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (length,):
        raise DimensionError(f"{name} must have length {length}, got {v.shape}")
    return v


def _as_free_block(W, rows: int, cols: int, name: str) -> np.ndarray:
    """Validate a free block; ``None`` means the zero block (or empty)."""
    if W is None:
        return np.zeros((rows, cols), dtype=complex)
    W = np.asarray(W, dtype=complex)
    if cols == 0 and W.size == 0:
        return np.zeros((rows, 0), dtype=complex)
    if W.shape != (rows, cols):
        raise DimensionError(f"{name} must be {rows}x{cols}, got {W.shape}")
    return W


@dataclass(frozen=True)
class AnsatzPencil:
    """A pencil ``lambda X + Y`` with its space tag and ansatz data.

    For the first-space tags the stored (v, w, W, W1) regenerate X and Y
    through the characterization of the space; for the second space the
    left ansatz pair (s, z) occupies the v and w slots and (W, W1) are the
    free blocks of the underlying transposed construction.
    """

    X: np.ndarray
    Y: np.ndarray
    dims: BlockDims
    space: str
    v: np.ndarray
    w: np.ndarray
    W: np.ndarray | None = None
    W1: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=complex)
        Y = np.asarray(self.Y, dtype=complex)
        s = self.dims.size
        if X.shape != (s, s) or Y.shape != (s, s):
            raise DimensionError(f"pencil coefficients must be {s}x{s}")
        if self.space not in SPACES:
            raise DimensionError(f"unknown space tag {self.space!r}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "v", np.asarray(self.v, dtype=complex).reshape(-1))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=complex).reshape(-1))
        check_finite("AnsatzPencil", X=X, Y=Y, v=self.v, w=self.w, W=self.W, W1=self.W1)

    def __call__(self, lam: complex) -> np.ndarray:
        return lam * self.X + self.Y


def _coeff_row(P, hi: int, lo: int) -> np.ndarray:
    """Horizontal stack [P_hi, P_{hi-1}, ..., P_lo] of coefficients."""
    if hi < lo:
        return np.zeros((P.rows, 0), dtype=complex)
    return np.hstack([P.coefficient(j) for j in range(hi, lo - 1, -1)])


def _l1_parts(R: Realization, v, w, W, W1):
    """X, Y of the first-space pencil with ansatz (v, w) and free (W, W1)."""
    m, n, k, r = R.m, R.n, R.k, R.r
    v = _as_vector(v, m, "v")
    w = _as_vector(w, k, "w")
    W = _as_free_block(W, m * n, (m - 1) * n, "W")
    W1 = _as_free_block(W1, k * r, (k - 1) * r, "W1")
    vc = v.reshape(-1, 1)
    wc = w.reshape(-1, 1)

    X_tl = np.hstack([np.kron(vc, R.A.coefficient(m)), W])
    X_br = np.hstack([np.kron(wc, R.D.coefficient(k)), W1])
    Y_tl = np.hstack([np.kron(vc, _coeff_row(R.A, m - 1, 1)) - W,
                      np.kron(vc, R.A.coefficient(0))])
    Y_br = np.hstack([-W1 + np.kron(wc, _coeff_row(R.D, k - 1, 1)),
                      np.kron(wc, R.D.coefficient(0))])
    e_k = np.zeros(k); e_k[-1] = 1.0
    e_m = np.zeros(m); e_m[-1] = 1.0
    Y_tr = -np.kron(np.outer(v, e_k), R.B)
    Y_bl = np.kron(np.outer(w, e_m), R.C)

    size = m * n + k * r
    X = np.zeros((size, size), dtype=complex)
    Y = np.zeros((size, size), dtype=complex)
    t = m * n
    X[:t, :t] = X_tl
    X[t:, t:] = X_br
    Y[:t, :t] = Y_tl
    Y[:t, t:] = Y_tr
    Y[t:, :t] = Y_bl
    Y[t:, t:] = Y_br
    return X, Y, v, w, W, W1


def build_pencil_L1(R: Realization, v, w, W=None, W1=None, space: str = SPACE_L1G) -> AnsatzPencil:
    """Member of the first ansatz space with right ansatz pair (v, w).

    The free blocks W (mn x (m-1)n) and W1 (kr x (k-1)r) parameterize the
    kernel of the ansatz map; they vanish structurally when m = 1 or k = 1.
    With the system-matrix tag the identity additionally pads the bottom
    partition with I_{r x n}, which restricts to r <= n.
    """
    if space not in (SPACE_L1S, SPACE_L1G):
        raise DimensionError(f"space must be {SPACE_L1S!r} or {SPACE_L1G!r}, got {space!r}")
    if space == SPACE_L1S and R.r > R.n:
        raise DimensionError("the system-matrix ansatz identity requires r <= n")
    X, Y, v, w, W, W1 = _l1_parts(R, v, w, W, W1)
    return AnsatzPencil(X=X, Y=Y, dims=R.dims, space=space, v=v, w=w, W=W, W1=W1)


def build_pencil_L2(R: Realization, s, z, W=None, W1=None) -> AnsatzPencil:
    """Member of the second ansatz space with left ansatz pair (s, z).

    Constructed as the elementwise transpose of a first-space pencil of
    the sign-normalized transpose realization; the off-diagonal blocks
    come out as ``-e_m z^T kron B`` and ``+e_k s^T kron C``, and the row
    ansatz identity holds with the left factor
    ``[Lambda^T kron (-C A(lambda)^{-1}) | Lambda^T kron I_r]``.
    W and W1 are the free blocks of the underlying transposed construction.
    """
    Rt = transpose_realization(R)
    X, Y, s, z, W, W1 = _l1_parts(Rt, s, z, W, W1)
    return AnsatzPencil(X=X.T, Y=Y.T, dims=R.dims, space=SPACE_L2G, v=s, w=z, W=W, W1=W1)


def _companion_free_blocks(m: int, n: int):
    """The free block of the companion pencils: zeros over an identity."""
    if m == 1:
        return None
    return np.vstack([np.zeros((n, (m - 1) * n)), np.eye((m - 1) * n)]).astype(complex)


def build_C1(R: Realization) -> AnsatzPencil:
    """First companion pencil; first-space member with ansatz (e_1, e_1)."""
    m, n, k, r = R.m, R.n, R.k, R.r
    e1m = np.zeros(m); e1m[0] = 1.0
    e1k = np.zeros(k); e1k[0] = 1.0
    return build_pencil_L1(R, e1m, e1k,
                           _companion_free_blocks(m, n), _companion_free_blocks(k, r),
                           space=SPACE_L1G)


def build_C2(R: Realization) -> AnsatzPencil:
    """Second companion pencil; second-space member with ansatz (e_1, e_1)."""
    m, n, k, r = R.m, R.n, R.k, R.r
    e1m = np.zeros(m); e1m[0] = 1.0
    e1k = np.zeros(k); e1k[0] = 1.0
    return build_pencil_L2(R, e1m, e1k,
                           _companion_free_blocks(m, n), _companion_free_blocks(k, r))


def _dl_diagonal_parts(P, deg: int, blk: int):
    """Anti-Hankel X and matching Y of the double-ansatz pencil, one partition.

    X(i, j) = P_{2d+1-i-j} on the anti-triangle d+1 <= i+j <= 2d;
    Y(i, j) = -P_{2d-i-j} for i, j <= d-1 with i+j >= d, plus P_0 at (d, d).
    """
    size = deg * blk
    X = np.zeros((size, size), dtype=complex)
    Y = np.zeros((size, size), dtype=complex)
    for i in range(1, deg + 1):
        for j in range(1, deg + 1):
            if deg + 1 <= i + j <= 2 * deg:
                X[(i - 1) * blk : i * blk, (j - 1) * blk : j * blk] = P.coefficient(2 * deg + 1 - i - j)
            if i <= deg - 1 and j <= deg - 1 and i + j >= deg:
                Y[(i - 1) * blk : i * blk, (j - 1) * blk : j * blk] = -P.coefficient(2 * deg - i - j)
    Y[(deg - 1) * blk :, (deg - 1) * blk :] = P.coefficient(0)
    return X, Y


def _assemble_four(TL, TR, BL, BR):
    return np.block([[TL, TR], [BL, BR]])


def build_DL(R: Realization) -> AnsatzPencil:
    """The double-ansatz pencil, unique up to scale, with ansatz (e_m, e_k).

    Both diagonal partitions are anti-Hankel stacks of the high-order
    coefficients; the constant blocks sit in the last block row and column
    of each partition.  The result is block-symmetric, satisfies the
    first-space identity with (e_m, e_k) and the second-space identity
    with the same pair.
    """
    m, n, k, r = R.m, R.n, R.k, R.r
    XA, YA = _dl_diagonal_parts(R.A, m, n)
    XD, YD = _dl_diagonal_parts(R.D, k, r)
    em = np.zeros(m); em[-1] = 1.0
    ek = np.zeros(k); ek[-1] = 1.0
    Y_tr = -np.kron(np.outer(em, ek), R.B)
    Y_bl = np.kron(np.outer(ek, em), R.C)
    X = _assemble_four(XA, np.zeros((m * n, k * r)), np.zeros((k * r, m * n)), XD)
    Y = _assemble_four(YA, Y_tr, Y_bl, YD)
    W = XA[:, n:] if m > 1 else None
    W1 = XD[:, r:] if k > 1 else None
    return AnsatzPencil(X=X, Y=Y, dims=R.dims, space=SPACE_DL, v=em, w=ek, W=W, W1=W1)


def _structured_dl(R: Realization, space: str) -> AnsatzPencil:
    # double-ansatz ray representative with ansatz (e_m, -e_k): negating the
    # bottom partition makes the off-diagonal blocks transpose into each
    # other, which is impossible at (e_m, e_k) under the honest sign
    # convention (it would force C = -B^T instead of C = B^T).
    m, n, k, r = R.m, R.n, R.k, R.r
    XA, YA = _dl_diagonal_parts(R.A, m, n)
    XD, YD = _dl_diagonal_parts(R.D, k, r)
    em = np.zeros(m); em[-1] = 1.0
    ek = np.zeros(k); ek[-1] = 1.0
    Y_tr = -np.kron(np.outer(em, ek), R.B)
    Y_bl = -np.kron(np.outer(ek, em), R.C)
    X = _assemble_four(XA, np.zeros((m * n, k * r)), np.zeros((k * r, m * n)), -XD)
    Y = _assemble_four(YA, Y_tr, Y_bl, -YD)
    W = XA[:, n:] if m > 1 else None
    W1 = -XD[:, r:] if k > 1 else None
    return AnsatzPencil(X=X, Y=Y, dims=R.dims, space=space, v=em, w=-ek, W=W, W1=W1)


def build_symmetric(R: Realization) -> AnsatzPencil:
    """Elementwise symmetric double-ansatz pencil for symmetric data.

    Requires A_i^T = A_i, D_i^T = D_i and C^T = B; the returned pencil has
    X = X^T and Y = Y^T and carries the ansatz pair (e_m, -e_k).
    """
    if not is_symmetric_realization(R):
        raise StructureError("realization is not symmetric (A_i, D_i symmetric, C^T = B)")
    return _structured_dl(R, SPACE_SYM)


def build_hermitian(R: Realization) -> AnsatzPencil:
    """Elementwise Hermitian double-ansatz pencil for Hermitian data."""
    if not is_hermitian_realization(R):
        raise StructureError("realization is not Hermitian (A_i, D_i Hermitian, C* = B)")
    return _structured_dl(R, SPACE_HERM)


def _fit_kron_rows(Z: np.ndarray, K: np.ndarray, count: int) -> np.ndarray:
    """Least-squares ansatz entries: Z approx v kron K, one v entry per block row."""
    blk = Z.shape[0] // count
    denom = float(np.sum(np.abs(K) ** 2))
    if denom == 0.0:
        raise DegenerateFit("all reference coefficients vanish; ansatz vector unidentifiable")
    Kc = K.conj()
    return np.array(
        [np.sum(Kc * Z[i * blk : (i + 1) * blk, :]) / denom for i in range(count)]
    )


def membership(X, Y, R: Realization, space: str = SPACE_L1G,
               tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Test membership of ``lambda X + Y`` and recover the ansatz pair.

    The block column shifted sum of (X, Y) must match, to tolerance, the
    pattern ``v kron [A_m ... A_0]`` on the top partition, ``w kron
    [D_k ... D_0]`` on the bottom, and ``-v e_{k+1}^T kron B`` /
    ``+w e_{m+1}^T kron C`` off the diagonal with the same pair; X must be
    block diagonal.  The pair is fitted per block row by least squares
    from the diagonal partitions and everything is re-checked against it.

    Second-space membership is tested on the transposed pencil against the
    sign-normalized transpose realization and returns the left pair (s, z).
    """
    if space not in SPACES:
        raise DimensionError(f"unknown space tag {space!r}")
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if space == SPACE_L2G:
        return membership(X.T, Y.T, transpose_realization(R), SPACE_L1G, tol)
    if space == SPACE_L1S and R.r > R.n:
        raise DimensionError("the system-matrix ansatz identity requires r <= n")

    dims = R.dims
    m, n, k, r = dims.m, dims.n, dims.k, dims.r
    t = dims.top
    if X.shape != (dims.size, dims.size) or Y.shape != (dims.size, dims.size):
        raise DimensionError(f"pencil side must be {dims.size} for dims {dims}")
    if tol is None:
        tol = MEMBERSHIP_RTOL
    scale = max(1.0, float(np.max(np.abs(X))), float(np.max(np.abs(Y))), realization_scale(R))
    atol = tol * scale

    Z = block_shift_sum(X, Y, dims)
    ct = (m + 1) * n
    Z_tl, Z_tr = Z[:t, :ct], Z[:t, ct:]
    Z_bl, Z_br = Z[t:, :ct], Z[t:, ct:]

    K_A = _coeff_row(R.A, m, 0)
    K_D = _coeff_row(R.D, k, 0)
    v = _fit_kron_rows(Z_tl, K_A, m)
    w = _fit_kron_rows(Z_br, K_D, k)

    pat_tr = np.zeros_like(Z_tr)
    pat_tr[:, -r:] = -np.kron(v.reshape(-1, 1), R.B)
    pat_bl = np.zeros_like(Z_bl)
    pat_bl[:, -n:] = np.kron(w.reshape(-1, 1), R.C)

    residual = max(
        float(np.max(np.abs(Z_tl - np.kron(v.reshape(-1, 1), K_A)))),
        float(np.max(np.abs(Z_br - np.kron(w.reshape(-1, 1), K_D)))),
        float(np.max(np.abs(Z_tr - pat_tr))),
        float(np.max(np.abs(Z_bl - pat_bl))),
        float(np.max(np.abs(X[:t, t:]))),
        float(np.max(np.abs(X[t:, :t]))),
    )
    if residual > atol:
        raise NotAMember(
            f"shifted-sum residual {residual:.3e} exceeds tolerance {atol:.3e}"
        )
    return v, w


def dim_space(dims: BlockDims) -> int:
    """Dimension of the first ansatz space: m + m(m-1)n^2 + k + k(k-1)r^2."""
    m, n, k, r = dims.m, dims.n, dims.k, dims.r
    return m + m * (m - 1) * n * n + k + k * (k - 1) * r * r


def sample_space(R: Realization, seed: int, space: str = SPACE_L1G) -> AnsatzPencil:
    """Draw a random member of the requested space, deterministic per seed.

    Ansatz vectors are complex Gaussian normalized to unit norm; the free
    blocks are complex Gaussian.  The double-ansatz and structured spaces
    are one-dimensional, so sampling reduces to a random scaling (real for
    the Hermitian space, which complex scalings would leave).
    """
    rng = np.random.default_rng(seed)

    def cvec(size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z / np.linalg.norm(z) if np.linalg.norm(z) else z

    def cmat(rows, cols):
        if rows == 0 or cols == 0:
            return None
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    m, n, k, r = R.m, R.n, R.k, R.r
    if space in (SPACE_L1S, SPACE_L1G):
        return build_pencil_L1(R, cvec(m), cvec(k),
                               cmat(m * n, (m - 1) * n), cmat(k * r, (k - 1) * r), space)
    if space == SPACE_L2G:
        return build_pencil_L2(R, cvec(m), cvec(k),
                               cmat(m * n, (m - 1) * n), cmat(k * r, (k - 1) * r))
    if space == SPACE_DL:
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        P = build_DL(R)
        return AnsatzPencil(X=alpha * P.X, Y=alpha * P.Y, dims=P.dims, space=P.space,
                            v=alpha * P.v, w=alpha * P.w,
                            W=None if P.W is None else alpha * P.W,
                            W1=None if P.W1 is None else alpha * P.W1)
    if space in (SPACE_SYM, SPACE_HERM):
        P = build_symmetric(R) if space == SPACE_SYM else build_hermitian(R)
        if space == SPACE_HERM:
            alpha = complex(rng.standard_normal())
        else:
            alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        return AnsatzPencil(X=alpha * P.X, Y=alpha * P.Y, dims=P.dims, space=P.space,
                            v=alpha * P.v, w=alpha * P.w,
                            W=None if P.W is None else alpha * P.W,
                            W1=None if P.W1 is None else alpha * P.W1)
    raise DimensionError(f"unknown space tag {space!r}")


def _residual_l1s(P: AnsatzPencil, R: Realization, lam: complex) -> float:
    m, n, k, r = R.m, R.n, R.k, R.r
    Irn = padded_identity(r, n)
    M = np.vstack([
        np.kron(lambda_vector(m, lam).reshape(-1, 1), np.eye(n)),
        np.kron(lambda_vector(k, lam).reshape(-1, 1), Irn),
    ])
    target = np.vstack([
        np.kron(P.v.reshape(-1, 1), eval_polymat(R.A, lam) - R.B @ Irn),
        np.kron(P.w.reshape(-1, 1), R.C + eval_polymat(R.D, lam) @ Irn),
    ])
    return float(np.max(np.abs(P(lam) @ M - target)))


def _residual_l1g(P: AnsatzPencil, R: Realization, lam: complex) -> float:
    m, n, k, r = R.m, R.n, R.k, R.r
    F = solve_state(R, lam, R.B)
    G = R.C @ F + eval_polymat(R.D, lam)
    M = np.vstack([
        np.kron(lambda_vector(m, lam).reshape(-1, 1), F),
        np.kron(lambda_vector(k, lam).reshape(-1, 1), np.eye(r)),
    ])
    target = np.vstack([
        np.zeros((m * n, r), dtype=complex),
        np.kron(P.w.reshape(-1, 1), G),
    ])
    return float(np.max(np.abs(P(lam) @ M - target)))


def _residual_l2g(P: AnsatzPencil, R: Realization, lam: complex) -> float:
    m, n, k, r = R.m, R.n, R.k, R.r
    CAinv = solve_state_left(R, lam, R.C)
    G = CAinv @ R.B + eval_polymat(R.D, lam)
    N = np.hstack([
        np.kron(lambda_vector(m, lam).reshape(1, -1), -CAinv),
        np.kron(lambda_vector(k, lam).reshape(1, -1), np.eye(r)),
    ])
    target = np.hstack([
        np.zeros((r, m * n), dtype=complex),
        np.kron(P.w.reshape(1, -1), G),
    ])
    return float(np.max(np.abs(N @ P(lam) - target)))


def residual_ansatz(P: AnsatzPencil, R: Realization, lam_samples) -> float:
    """Max deviation of the space-defining identity over the sample points.

    First-space pencils are multiplied on the right by the stacked
    ascending-power lift; the system-matrix variant pads with I_{r x n},
    the transfer variant uses A(lambda)^{-1} B and targets
    ``[0 ; w kron G(lambda)]``.  Second-space pencils use the row identity
    with left factor ``[-Lambda^T kron C A(lambda)^{-1} | Lambda^T kron I]``.
    The double-ansatz tag checks both identities.  Pole errors from sample
    points propagate to the caller.
    """
    worst = 0.0
    for lam in lam_samples:
        if P.space == SPACE_L1S:
            res = _residual_l1s(P, R, lam)
        elif P.space in (SPACE_L1G, SPACE_SYM, SPACE_HERM):
            res = _residual_l1g(P, R, lam)
        elif P.space == SPACE_L2G:
            res = _residual_l2g(P, R, lam)
        elif P.space == SPACE_DL:
            res = max(_residual_l1g(P, R, lam), _residual_l2g(P, R, lam))
        else:
            raise DimensionError(f"unknown space tag {P.space!r}")
        worst = max(worst, res)
    return worst
