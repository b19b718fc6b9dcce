"""Independent oracles used by the tests.

These stay deliberately separate from the package implementations they
check: the space dimension comes from the nullity of an explicitly built
constraint matrix, never from the closed formula under test, and the
zeros of det P come from its scalar interpolant, never from a pencil;
reference pencil eigenvalues come from scipy's QZ, never from the
package's shift-and-invert path.  The per-point loops below are the
references of the stacked sampler and l1s residual, and the row-by-row
greedy loop that of the matching.  The eager structural residual is the
formula recovery evaluated before the residual was computed on read, the
largest-bottom-block rule the x that recovery has always returned, and the
copy-first Horner loop the former body of ``eval_polymat``.
"""

import numpy as np

from syspencils import (
    InterpolationError,
    Realization,
    block_shift_sum,
    eval_polymat,
    lift_right,
)
from syspencils.spectra import _norm


def det_scalar_poly(P) -> np.ndarray:
    """Ascending coefficients of det P(lambda), square P of degree d.

    det P has degree at most s*d, so it is interpolated exactly from its
    values at the s*d + 1 roots of unity; trailing coefficients below
    1e-10 of the largest are dropped.
    """
    N = P.rows * P.degree + 1
    nodes = np.exp(2j * np.pi * np.arange(N) / N)
    coeffs = np.fft.fft([np.linalg.det(eval_polymat(P, t)) for t in nodes]) / N
    return coeffs[: np.flatnonzero(np.abs(coeffs) > 1e-10 * np.abs(coeffs).max())[-1] + 1]


def det_roots(P) -> np.ndarray:
    """Roots of det P(lambda), by numpy's companion eigensolve."""
    return np.roots(det_scalar_poly(P)[::-1])


def shifted_sum_pattern(v, w, R: Realization) -> np.ndarray:
    """Target of the block column shifted sum for ansatz pair (v, w)."""
    m, n, k, r = R.m, R.n, R.k, R.r
    K_A = np.hstack([R.A.coefficient(j) for j in range(m, -1, -1)])
    K_D = np.hstack([R.D.coefficient(j) for j in range(k, -1, -1)])
    top = np.zeros((m * n, (m + 1) * n + (k + 1) * r), dtype=complex)
    bot = np.zeros((k * r, (m + 1) * n + (k + 1) * r), dtype=complex)
    top[:, : (m + 1) * n] = np.kron(np.reshape(v, (-1, 1)), K_A)
    top[:, -r:] = -np.kron(np.reshape(v, (-1, 1)), R.B)
    bot[:, (m + 1) * n :] = np.kron(np.reshape(w, (-1, 1)), K_D)
    bot[:, (m + 1) * n - n : (m + 1) * n] = np.kron(np.reshape(w, (-1, 1)), R.C)
    return np.vstack([top, bot])


def constraint_nullity(R: Realization) -> int:
    """Dimension of the first ansatz space via an explicit constraint matrix.

    Unknowns are (X, Y, v, w); constraints force the off-diagonal quadrants
    of X to vanish and the block column shifted sum of (X, Y) to equal the
    (v, w) pattern.  The ansatz pair is determined by (X, Y) whenever the
    coefficient rows are nonzero, so the nullity equals the space dimension.
    """
    dims = R.dims
    N = dims.size
    m, n, k, r = dims.m, dims.n, dims.k, dims.r
    t = dims.top

    def apply(X, Y, v, w):
        off = np.concatenate([X[:t, t:].ravel(), X[t:, :t].ravel()])
        dev = block_shift_sum(X, Y, dims) - shifted_sum_pattern(v, w, R)
        return np.concatenate([off, dev.ravel()])

    zero_X = np.zeros((N, N), dtype=complex)
    zero_v = np.zeros(m, dtype=complex)
    zero_w = np.zeros(k, dtype=complex)
    cols = []
    for i in range(N):
        for j in range(N):
            E = np.zeros((N, N), dtype=complex)
            E[i, j] = 1.0
            cols.append(apply(E, zero_X, zero_v, zero_w))
    for i in range(N):
        for j in range(N):
            E = np.zeros((N, N), dtype=complex)
            E[i, j] = 1.0
            cols.append(apply(zero_X, E, zero_v, zero_w))
    for i in range(m):
        e = np.zeros(m, dtype=complex)
        e[i] = 1.0
        cols.append(apply(zero_X, zero_X, e, zero_w))
    for i in range(k):
        e = np.zeros(k, dtype=complex)
        e[i] = 1.0
        cols.append(apply(zero_X, zero_X, zero_v, e))
    M = np.column_stack(cols)
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > max(M.shape) * np.finfo(float).eps * sv[0]))
    return M.shape[1] - rank


def qz_eigvals(X, Y, left=False, right=False) -> np.ndarray:
    """Finite eigenvalues of ``lambda X + Y`` from scipy's QZ of (Y, -X).

    The vector sides asked for are those the package's QZ fallback computes,
    so that its eigenvalues can be compared bit for bit.
    """
    import scipy.linalg

    from syspencils.spectra import INF_EIG_RTOL

    out = scipy.linalg.eig(Y, -X, left=left, right=right, homogeneous_eigvals=True)
    ab = out[0] if left or right else out
    finite = np.abs(ab[1]) > INF_EIG_RTOL * np.hypot(np.abs(ab[0]), np.abs(ab[1]))
    return ab[0][finite] / ab[1][finite]


def nonpole_samples_per_point(R: Realization, count: int, seed: int = 7) -> np.ndarray:
    """The former sampler rule, one SVD of A(lambda) per candidate.

    Candidate j = seed + 1, seed + 2, ... is kept when every singular value is
    above ``1e-3 max(sigma_max, max_j |A_j|)``, up to 200 count candidates: the
    floor is the data's own scale, so the points do not change when A is scaled.
    The sampler now reads the probe estimate of A(lambda) instead; this rank test
    is kept to show that both keep the same points on small cases.
    """
    from itertools import islice

    floor = max(float(np.max(np.abs(c))) for c in R.A.coeffs)

    def full_rank(lam):
        sv = np.linalg.svd(eval_polymat(R.A, lam), compute_uv=False)
        return np.count_nonzero(sv > 1e-3 * max(sv[0], floor)) == R.n

    points = ((0.4 + 1.2 * (j * 1.618033988749895 % 1)) * np.exp(2j * np.pi * (j * 2**0.5 % 1))
              for j in range(seed + 1, seed + 1 + 200 * count))
    out = list(islice((lam for lam in points if full_rank(lam)), count))
    if len(out) < count:
        raise InterpolationError("could not find enough sample points away from poles")
    return np.array(out, dtype=complex)


def residual_l1s_per_point(P, R: Realization, lams) -> float:
    """The system-matrix ansatz residual with one lift and one target per point."""
    m, n, k, r = R.m, R.n, R.k, R.r
    Irn = np.eye(r, n)
    worst = 0.0
    for lam in lams:
        M = np.vstack([np.kron(lam ** np.arange(m - 1, -1, -1.0)[:, None], np.eye(n)),
                       np.kron(lam ** np.arange(k - 1, -1, -1.0)[:, None], Irn)])
        target = np.vstack([np.kron(P.v[:, None], eval_polymat(R.A, lam) - R.B @ Irn),
                            np.kron(P.w[:, None], R.C + eval_polymat(R.D, lam) @ Irn)])
        worst = max(worst, float(np.max(np.abs(P(lam) @ M - target))))
    return worst


def greedy_match(a, b):
    """Greedy matching one row at a time: entries of ``a`` in decreasing magnitude,
    each paired with the nearest unused entry of ``b`` under ``|a - b| / max(1, |a|, |b|)``."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    abs_a, abs_b = np.abs(a), np.abs(b)
    dist = np.abs(a[:, None] - b) / np.maximum(np.maximum(abs_a[:, None], abs_b), 1.0)
    pairs = []
    for i in np.argsort(-abs_a, kind="stable"):
        j = int(np.argmin(dist[i]))
        pairs.append((int(i), j, float(dist[i, j])))
        dist[:, j] = np.inf
    return pairs, max((d for _, _, d in pairs), default=0.0)


def eager_structural_residual(u, R: Realization, lam0, x) -> float:
    """``||c u - L||`` with L the lift of x at lam0 and ``c = u* L / ||u||^2``, evaluated
    as right-side recovery did when it returned: a left vector u recovering y passes
    ``conj(u)``, the transpose realization and ``conj(y)``."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    L = lift_right(R, x, lam0)
    c = np.vdot(u, L) / _norm(u) ** 2
    return _norm(c * u - L)


def largest_bottom_block_x(u, dims, lam0) -> np.ndarray:
    """x as right-side recovery reads it from a pencil vector u: the bottom block of
    largest norm divided by its power of lam0, at unit norm."""
    blocks = np.asarray(u, dtype=complex)[dims.top:].reshape(dims.k, dims.r)
    norms = [_norm(b) for b in blocks]
    j = norms.index(max(norms))
    power = lam0 ** (dims.k - 1 - j)
    return blocks[j] / (norms[j] * power / abs(power))


def copy_first_horner(P, lam) -> np.ndarray:
    """Horner's scheme from a complex copy of the leading coefficient, the form
    ``eval_polymat`` had before it started from ``c_m lambda + c_{m-1}``.  A constant
    broadcasts against the points as a higher degree does: one copy per point."""
    acc = np.array(np.broadcast_to(P.coeffs[-1], np.broadcast_shapes(np.shape(lam),
                                                                     P.coeffs[-1].shape)),
                   dtype=complex)
    for c in reversed(P.coeffs[:-1]):
        acc = acc * lam + c
    return acc
