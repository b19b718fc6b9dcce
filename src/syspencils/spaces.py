"""Ansatz-vector pencil spaces for system matrices and transfer functions.

A pencil ``L(lambda) = lambda X + Y`` of side mn + kr belongs to the first
ansatz space of a realization when its block column shifted sum reproduces
the coefficient rows of A and D tensored with a pair of ansatz vectors
(v, w), with the constant blocks B and C pinned to the trailing block
column of the off-diagonal quadrants.  The second space is the transpose
dual; their intersection is a single pencil (up to scale), the double-ansatz
member, which for symmetric or Hermitian data has an elementwise structured
representative.

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

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BlockDims,
    Realization,
    _assemble_lift,
    _kept,
    _kron_col,
    _lift,
    _points,
    check_finite,
    eval_polymat,
    is_hermitian_realization,
    is_symmetric_realization,
    max_entry,
    padded_identity,
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

#: Relative tolerance of the membership test.
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
    """A pencil ``lambda X + Y`` with its space tag and ansatz pair.

    X and Y fix the pencil; (v, w) is the right ansatz pair of a first-space
    member, or the left pair (s, z) of a second-space one, as its builder set
    it.  :func:`membership` reads the pair back from X and Y, which is what
    ``verify`` does; the free blocks are ``X[:mn, n:mn]`` and ``X[mn:, mn+r:]``
    (of the transposes for the second space).
    """

    X: np.ndarray
    Y: np.ndarray
    dims: BlockDims
    space: str
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=complex)
        Y = np.asarray(self.Y, dtype=complex)
        s = self.dims.size
        if X.shape != (s, s) or Y.shape != (s, s):
            raise DimensionError(f"pencil coefficients must be {s}x{s}")
        if self.space not in SPACES:
            raise DimensionError(f"unknown space tag {self.space!r}")
        if self.space == SPACE_L1S and self.dims.r > self.dims.n:  # the identity pads I_{r x n}
            raise DimensionError(f"AnsatzPencil.space {self.space!r} needs r <= n, "
                                 f"got r={self.dims.r}, n={self.dims.n}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "v", _as_vector(self.v, self.dims.m, "AnsatzPencil.v"))
        object.__setattr__(self, "w", _as_vector(self.w, self.dims.k, "AnsatzPencil.w"))
        check_finite("AnsatzPencil", X=X, Y=Y, v=self.v, w=self.w)

    def __call__(self, lam) -> np.ndarray:  # at p points, shape (p, N, N), as eval_polymat
        return _points(lam) * self.X + self.Y


def _l1_parts(R: Realization, v, w, W, W1):
    """X, Y of the first-space pencil with ansatz (v, w) and free (W, W1).

    Each diagonal partition is the pair whose column shifted sum is
    ``v kron [A_m ... A_0]``: X holds its first block column and W, Y the
    rest minus [W | 0].
    """
    m, n, k, r = R.m, R.n, R.k, R.r
    v = _as_vector(v, m, "v")
    w = _as_vector(w, k, "w")
    W = _as_free_block(W, m * n, (m - 1) * n, "W")
    W1 = _as_free_block(W1, k * r, (k - 1) * r, "W1")
    t, size, (KA, KD) = m * n, m * n + k * r, _kept(R, "_coeff_rows", _coeff_rows)
    X = np.zeros((size, size), dtype=complex)
    Y = np.zeros((size, size), dtype=complex)
    for lo, hi, b, u, K, F in ((0, t, n, v, KA, W), (t, size, r, w, KD, W1)):
        U = _kron_col(u, K)
        X[lo:hi, lo:lo + b] = U[:, :b]
        X[lo:hi, lo + b:hi] = F
        Y[lo:hi, lo:hi] = U[:, b:]
        Y[lo:hi, lo:hi - b] -= F
    Y[:t, size - r:] = -_kron_col(v, R.B)
    Y[t:, t - n:t] = _kron_col(w, R.C)
    return X, Y, v, w


def _coeff_rows(R: Realization) -> tuple:
    """``[A_m ... A_0]`` and ``[D_k ... D_0]``, which every first-space member tensors."""
    return tuple(np.hstack(P.coeffs[::-1]) for P in (R.A, R.D))


def build_pencil_L1(R: Realization, v, w, W=None, W1=None, space: str = SPACE_L1G) -> AnsatzPencil:
    """Member of the first ansatz space with right ansatz pair (v, w).

    The free blocks W (mn x (m-1)n) and W1 (kr x (k-1)r) parameterize the
    kernel of the ansatz map; they vanish structurally when m = 1 or k = 1.
    With the system-matrix tag the identity additionally pads the bottom
    partition with I_{r x n}, which restricts to r <= n.
    """
    if space not in (SPACE_L1S, SPACE_L1G):
        raise DimensionError(f"space must be {SPACE_L1S!r} or {SPACE_L1G!r}, got {space!r}")
    X, Y, v, w = _l1_parts(R, v, w, W, W1)
    return AnsatzPencil(X=X, Y=Y, dims=R.dims, space=space, v=v, w=w)


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
    X, Y, s, z = _l1_parts(Rt, s, z, W, W1)
    return AnsatzPencil(X=X.T, Y=Y.T, dims=R.dims, space=SPACE_L2G, v=s, w=z)


def _companion_parts(R: Realization):
    """(X, Y, v, w) of C1: ansatz pair (e_1, e_1), free blocks zeros over ``s I``, at the
    data's scale: s is the power of two with ``s <= R.scale < 2s`` (1 for zero data)."""
    m, n, k, r = R.m, R.n, R.k, R.r
    s = math.ldexp(0.5, math.frexp(R.scale)[1]) if R.scale else 1.0
    return _l1_parts(R, np.eye(m)[0], np.eye(k)[0], s * np.eye(m * n, (m - 1) * n, -n,
                     dtype=complex), s * np.eye(k * r, (k - 1) * r, -r, dtype=complex))


def _fresh(parts, dims: BlockDims, space: str, alpha=None) -> AnsatzPencil:
    """A pencil of writable copies of kept (X, Y, v, w) in their layout, or alpha times them."""
    X, Y, v, w = (np.copy(a, order="K") if alpha is None else alpha * a for a in parts)
    return AnsatzPencil(X=X, Y=Y, dims=dims, space=space, v=v, w=w)


def build_C1(R: Realization) -> AnsatzPencil:
    """First companion pencil, ansatz (e_1, e_1): a fresh copy of the one kept on R."""
    return _fresh(_kept(R, "_c1", _companion_parts), R.dims, SPACE_L1G)


def build_C2(R: Realization) -> AnsatzPencil:
    """Second companion pencil, ansatz (e_1, e_1): the transposed C1 kept on the transpose."""
    X, Y, s, z = _kept(transpose_realization(R), "_c1", _companion_parts)
    return _fresh((X.T, Y.T, s, z), R.dims, SPACE_L2G)


def _anti_hankel(P, d: int) -> np.ndarray:
    """Free block of the double-ansatz member: block (i, j) is P_{2d-i-j}.

    Block indices run i = 1..d, j = 1..d-1; coefficients above the degree
    d are zero, so the block is anti-triangular.
    """
    b = P.rows
    H = np.zeros((d * b, (d - 1) * b), dtype=complex)
    for i in range(1, d + 1):
        for j in range(max(1, d - i), d):
            H[(i - 1) * b : i * b, (j - 1) * b : j * b] = P.coefficient(2 * d - i - j)
    return H


def _dl_parts(R: Realization, sign: float):
    """(X, Y, v, w) of the member with ansatz (e_m, sign e_k) and anti-Hankel free blocks."""
    # sign -1 gives the symmetric and Hermitian ray representative: negating
    # the bottom partition makes the off-diagonal blocks transpose into each
    # other, which is impossible at (e_m, e_k) under the honest sign
    # convention (it would force C = -B^T instead of C = B^T).
    W1 = _anti_hankel(R.D, R.k)
    return _l1_parts(R, np.eye(R.m)[-1], sign * np.eye(R.k)[-1],
                     _anti_hankel(R.A, R.m), W1 if sign > 0 else -W1)


def _one_dimensional(R: Realization, space: str, alpha=None) -> AnsatzPencil:
    """A fresh member of the dl, sym or herm space: the pencil kept on R (alpha times it)."""
    if space == SPACE_SYM and not is_symmetric_realization(R):
        raise StructureError("realization is not symmetric (A_i, D_i symmetric, C^T = B)")
    if space == SPACE_HERM and not is_hermitian_realization(R):
        raise StructureError("realization is not Hermitian (A_i, D_i Hermitian, C* = B)")
    parts = (_kept(R, "_dl", lambda R: _dl_parts(R, 1.0)) if space == SPACE_DL
             else _kept(R, "_dl_signed", lambda R: _dl_parts(R, -1.0)))
    return _fresh(parts, R.dims, space, alpha)


def build_DL(R: Realization) -> AnsatzPencil:
    """The double-ansatz pencil, unique up to scale, with ansatz (e_m, e_k).

    Both diagonal partitions are anti-Hankel stacks of the high-order
    coefficients; the constant blocks sit in the last block row and column
    of each partition.  The result satisfies the first-space identity with
    (e_m, e_k) and the second-space identity with the same pair; block symmetry
    alone does not (DL times b on the bottom partition has it for every b), so
    :func:`membership` fits both.  A fresh copy of the pencil kept on R.
    """
    return _one_dimensional(R, SPACE_DL)


def build_symmetric(R: Realization) -> AnsatzPencil:
    """Elementwise symmetric double-ansatz pencil for symmetric data.

    Requires A_i^T = A_i, D_i^T = D_i and C^T = B; the returned pencil has
    X = X^T and Y = Y^T and carries the ansatz pair (e_m, -e_k); a fresh copy.
    """
    return _one_dimensional(R, SPACE_SYM)


def build_hermitian(R: Realization) -> AnsatzPencil:
    """Elementwise Hermitian double-ansatz pencil for Hermitian data; a fresh copy."""
    return _one_dimensional(R, SPACE_HERM)


def _fit_row(K) -> tuple:
    """``K = [P_d ... P_0]``, and K conjugated, flattened and divided by max|K| with the
    normaliser of the fit Z ~ v kron K (one v entry per block row); read-only."""
    big = max_entry(K)
    if big == 0.0:
        raise DegenerateFit("all reference coefficients vanish; ansatz vector unidentifiable")
    Kc = K.conj().ravel() / big
    Kc.setflags(write=False)
    return K, Kc, np.vdot(Kc, Kc).real * big


def membership(X, Y, R: Realization, space: str = SPACE_L1G) -> tuple[np.ndarray, np.ndarray]:
    """Test membership of ``lambda X + Y`` and recover the ansatz pair.

    The block column shifted sum of (X, Y) must match, to tolerance, the
    pattern ``v kron [A_m ... A_0]`` on the top partition, ``w kron
    [D_k ... D_0]`` on the bottom, and ``-v e_{k+1}^T kron B`` /
    ``+w e_{m+1}^T kron C`` off the diagonal with the same pair; X must be
    block diagonal.  The pair is fitted per block row by least squares
    from the diagonal partitions and everything is re-checked against it,
    to ``MEMBERSHIP_RTOL max(p, s)``, p and s the largest entries of pencil and data.

    Second-space membership is tested on the transposed pencil against the
    sign-normalized transpose realization and returns the left pair (s, z).
    The double-ansatz tag tests both halves and returns the first-space pair.
    The symmetric (Hermitian) tags require X and Y symmetric (Hermitian) instead of the
    second half, which that implies: (X^T, Y^T) is then a first-space member, with (v, w)
    (conjugated), of the unsigned transpose (A^T, C^T, B^T, D^T), which is R for symmetric
    and conj(R) for Hermitian data; the second half's transpose negates B and C.
    """
    if space not in SPACES:
        raise DimensionError(f"unknown space tag {space!r}")
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if space == SPACE_L2G:
        return membership(X.T, Y.T, transpose_realization(R), SPACE_L1G)
    if space == SPACE_L1S and R.r > R.n:
        raise DimensionError("the system-matrix ansatz identity requires r <= n")

    dims = R.dims
    m, n, k, r = dims.m, dims.n, dims.k, dims.r
    t = dims.top
    if X.shape != (dims.size, dims.size) or Y.shape != (dims.size, dims.size):
        raise DimensionError(f"pencil side must be {dims.size} for dims {dims}")
    atol = MEMBERSHIP_RTOL * max(max_entry(X, Y), R.scale)

    Z = block_shift_sum(X, Y, dims)
    ct = (m + 1) * n
    (K_A, fit_A, norm_A), (K_D, fit_D, norm_D) = _kept(
        R, "_fit_rows", lambda R: tuple(map(_fit_row, _kept(R, "_coeff_rows", _coeff_rows))))
    v = Z[:t, :ct].reshape(m, -1) @ fit_A / norm_A
    w = Z[t:, ct:].reshape(k, -1) @ fit_D / norm_D

    # Z becomes Z minus the pattern of (v, w), in place: the four blocks do not overlap
    Z[:t, :ct] -= _kron_col(v, K_A)
    Z[:t, -r:] += _kron_col(v, R.B)
    Z[t:, ct - n:ct] -= _kron_col(w, R.C)
    Z[t:, ct:] -= _kron_col(w, K_D)
    residual = max(float(np.max(np.abs(Z))),
                   float(np.max(np.abs(X[:t, t:]))), float(np.max(np.abs(X[t:, :t]))))
    if not residual <= atol:  # NaN too
        raise NotAMember(
            f"shifted-sum residual {residual:.3e} exceeds tolerance {atol:.3e}"
        )
    conj = {SPACE_SYM: np.asarray, SPACE_HERM: np.conj}.get(space)
    if conj and not (asym := max_entry(X - conj(X.T), Y - conj(Y.T))) <= atol:
        raise NotAMember(f"{space} structure deviation {asym:.3e} exceeds tolerance {atol:.3e}")
    if space == SPACE_DL:
        membership(X, Y, R, SPACE_L2G)
    return v, w


def dim_space(dims: BlockDims) -> int:
    """Dimension of the first ansatz space: m + m(m-1)n^2 + k + k(k-1)r^2."""
    m, n, k, r = dims.m, dims.n, dims.k, dims.r
    return m + m * (m - 1) * n * n + k + k * (k - 1) * r * r


def sample_space(R: Realization, seed: int, space: str = SPACE_L1G) -> AnsatzPencil:
    """Draw a random member of the requested space, deterministic per seed.

    Ansatz vectors are complex Gaussian normalized to unit norm; the free
    blocks are complex Gaussian.  The double-ansatz and structured spaces
    are one-dimensional, so a member is the pencil kept on R times a random
    scalar (real for the Hermitian space, which complex scalings would leave).
    """
    rng = np.random.default_rng(seed)

    def cvec(size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z / norm if (norm := np.linalg.norm(z)) else z

    def cmat(rows, cols):
        if rows == 0 or cols == 0:
            return None
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    m, n, k, r = R.m, R.n, R.k, R.r
    if space in (SPACE_L1S, SPACE_L1G, SPACE_L2G):
        args = (R, cvec(m), cvec(k), cmat(m * n, (m - 1) * n), cmat(k * r, (k - 1) * r))
        return build_pencil_L2(*args) if space == SPACE_L2G else build_pencil_L1(*args, space)
    if space not in (SPACE_DL, SPACE_SYM, SPACE_HERM):
        raise DimensionError(f"unknown space tag {space!r}")
    alpha = complex(rng.standard_normal())
    if space != SPACE_HERM:
        alpha += 1j * rng.standard_normal()
    return _one_dimensional(R, space, alpha)


def _max_deviation(X, Y, lams, M, target) -> float:
    """``max|(lam X + Y) M_i - target_i|`` over the points, target_i standing for the
    trailing rows (zero above); lam X + Y comes first, as lam X M_i and Y M_i can cancel."""
    out = (_points(lams) * X + Y) @ M
    out[:, -target.shape[1]:] -= target
    return float(np.abs(out).max())


def _l1s_data(R: Realization, lams: np.ndarray):
    """The lift ``[Lambda_m kron I_n ; Lambda_k kron I_rn]``, ``A - B I_rn`` and
    ``C + D I_rn`` at ``lams``: what the system-matrix identity reads of R."""
    Irn = padded_identity(R.r, R.n)
    return (_assemble_lift(R, lams, np.eye(R.n), Irn),
            eval_polymat(R.A, lams) - R.B @ Irn, R.C + eval_polymat(R.D, lams) @ Irn)


def residual_ansatz(P: AnsatzPencil, R: Realization, lam_samples) -> float:
    """Max deviation of the space-defining identity over the sample points.

    First-space pencils (the double-ansatz, symmetric and Hermitian ones
    included) are multiplied on the right by the stacked power lift; the
    system-matrix variant pads with I_{r x n}, the transfer variant uses
    A(lambda)^{-1} B and targets ``[0 ; w kron G(lambda)]``.  Second-space
    pencils are checked through their transposes, as first-space members
    of :func:`transpose_realization`; the double-ansatz tag checks both
    identities.  Pole errors from sample points propagate to the caller.
    """
    lams = np.asarray(lam_samples, dtype=complex).reshape(-1)
    if lams.size == 0:
        return 0.0
    kept = lam_samples is vars(R).get("_samples")  # verify's points: R keeps their data

    def data(name, compute):  # compute(R) at the points, kept on R for verify's
        return _kept(R, name, compute) if kept else compute(R)

    if P.space == SPACE_L1S:
        M, TA, TD = data("_l1s_data", lambda R: _l1s_data(R, lams))
        target = np.concatenate([_kron_col(P.v, TA), _kron_col(P.w, TD)], axis=1)
        return _max_deviation(P.X, P.Y, lams, M, target)
    sides = []
    if P.space != SPACE_L2G:
        sides.append((P.X, P.Y, data("_transfer", lambda R: _lift(R, lams, np.eye(R.r)))))
    if P.space in (SPACE_L2G, SPACE_DL):
        sides.append((P.X.T, P.Y.T, data("_transfer_dual", lambda R: _lift(
            transpose_realization(R), lams, np.eye(R.r)))))
    return max(_max_deviation(X, Y, lams, M, _kron_col(P.w, G)) for X, Y, (M, G) in sides)
