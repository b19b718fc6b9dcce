"""Correctness checks made apart from the program under test.

Nothing here imports ``syspencils``: reference zeros come from the
textbook block companion of S(lambda) built from the raw coefficients,
eigenvalue multisets are compared by an optimal assignment, and
recovered eigenvectors are tested against G(lambda) evaluated here.
Each check returns ``None`` when the output is right and a short reason
when it is not.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from gen import Raw

#: Scale-aware eigenvalue distance allowed between output and reference.
EIG_TOL = 1e-6
#: Relative residual of a recovered eigenvector allowed (see vector_mismatch).
VEC_TOL = 1e-6
#: sigma_min(A(lambda)) below this share of max(1, sigma_max) marks a pole of G.
POLE_RTOL = 1e-3
#: Entrywise deviation from (skew-)symmetry allowed, relative to max |entry|.
STRUCT_TOL = 1e-12


def _polyval(coeffs, lam):
    acc = np.array(coeffs[-1], dtype=complex)
    for c in reversed(coeffs[:-1]):
        acc = acc * lam + c
    return acc


def reference_zeros(raw: Raw) -> np.ndarray:
    """Finite zeros of S(lambda) = [[A(lambda), -B], [C, D(lambda)]].

    The block companion ``lambda X + Y`` with X = diag(S_d, I, ..., I) and
    first block row [S_{d-1}, ..., S_0] has side (n+r)*d, d = max(m, k).
    With A_m and D_k nonsingular, det S has degree mn + kr, so the finite
    zeros are the mn + kr eigenvalues farthest from infinity; the rest
    are the structural infinite ones that m != k leaves.
    """
    m, n, k, r = raw.dims
    s, d = n + r, max(m, k)
    S = []
    for j in range(d + 1):
        Sj = np.zeros((s, s), dtype=complex)
        if j <= m:
            Sj[:n, :n] = raw.A[j]
        if j <= k:
            Sj[n:, n:] = raw.D[j]
        if j == 0:
            Sj[:n, n:] = -raw.B
            Sj[n:, :n] = raw.C
        S.append(Sj)
    X = np.eye(s * d, dtype=complex)
    X[:s, :s] = S[d]
    Y = np.zeros((s * d, s * d), dtype=complex)
    Y[:s, :] = np.hstack([S[j] for j in range(d - 1, -1, -1)])
    Y[s:, :-s] -= np.eye(s * (d - 1))
    alpha, beta = scipy.linalg.eigvals(Y, -X, homogeneous_eigvals=True)
    finiteness = np.abs(beta) / np.hypot(np.abs(alpha), np.abs(beta))
    keep = np.argsort(-finiteness, kind="stable")[: m * n + k * r]
    return alpha[keep] / beta[keep]


def eig_mismatch(eigs, ref) -> str | None:
    """Compare two eigenvalue multisets by optimal assignment."""
    eigs = np.asarray(eigs, dtype=complex).reshape(-1)
    ref = np.asarray(ref, dtype=complex).reshape(-1)
    if eigs.size != ref.size:
        return f"{eigs.size} eigenvalues, reference has {ref.size}"
    if not np.all(np.isfinite(eigs)):
        return "non-finite eigenvalue"
    a, b = eigs[:, None], ref[None, :]
    dist = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    rows, cols = linear_sum_assignment(dist)
    worst = float(dist[rows, cols].max()) if eigs.size else 0.0
    if worst > EIG_TOL:
        return f"eigenvalue off by {worst:.2e}"
    return None


def transfer(raw: Raw, lam: complex):
    """(G(lambda), its scale), or None near a pole of G.

    G(lambda) = C A(lambda)^{-1} B + D(lambda).  The scale is
    ||C A^{-1} B|| + ||D(lambda)||, the size of the two terms before they
    cancel: at an eigenvalue G itself is singular, and vanishes when r = 1.
    """
    Alam = _polyval(raw.A, lam)
    sv = np.linalg.svd(Alam, compute_uv=False)
    if sv[-1] < POLE_RTOL * max(1.0, sv[0]):
        return None
    F = raw.C @ np.linalg.solve(Alam, raw.B)
    Dlam = _polyval(raw.D, lam)
    return F + Dlam, np.linalg.norm(F, 2) + np.linalg.norm(Dlam, 2)


def vector_mismatch(raw: Raw, lam: complex, x, left: bool) -> str | None:
    """Relative residual ||G x|| / (scale ||x||) of a recovered right vector,
    or ||x^* G|| / (scale ||x||) of a left one, with the scale of :func:`transfer`.

    ``x`` is None when the program declined to recover; that is only
    right at a pole of G.
    """
    evaluated = transfer(raw, lam)
    if evaluated is None:
        return None
    G, scale = evaluated
    if x is None:
        return f"no vector recovered at lambda={lam:.3g}, away from poles"
    x = np.asarray(x, dtype=complex).reshape(-1)
    res = x.conj() @ G if left else G @ x
    rel = np.linalg.norm(res) / max(scale * np.linalg.norm(x), 1e-300)
    if not rel <= VEC_TOL:
        return f"eigenvector residual {rel:.2e} at lambda={lam:.3g}"
    return None


def structure_mismatch(X, Y, space: str) -> str | None:
    """``sym`` pencils need X = X^T, Y = Y^T; ``herm`` pencils X = X^*, Y = Y^*."""
    if space not in ("sym", "herm"):
        return None
    for name, M in (("X", X), ("Y", Y)):
        M = np.asarray(M)
        T = M.conj().T if space == "herm" else M.T
        if np.max(np.abs(M - T)) > STRUCT_TOL * max(1.0, np.max(np.abs(M))):
            return f"{name} is not {'Hermitian' if space == 'herm' else 'symmetric'}"
    return None


def decode_matrix(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if a.ndim != 3 or a.shape[-1] != 2:
        raise ValueError("matrix must be rows of [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def decode_vector(data) -> np.ndarray:
    a = np.asarray(data, dtype=float).reshape(-1, 2)
    return a[:, 0] + 1j * a[:, 1]


def pencil_eigs(X, Y) -> np.ndarray:
    """Finite eigenvalues of lambda X + Y, for checking a written pencil."""
    alpha, beta = scipy.linalg.eigvals(Y, -X, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-10 * np.hypot(np.abs(alpha), np.abs(beta))
    return alpha[finite] / beta[finite]
