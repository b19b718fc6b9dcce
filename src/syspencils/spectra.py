"""Spectral verification: reference zeros, eigensolves and recovery.

The zeros of a realization are the finite eigenvalues of the textbook
block companion pencil of its system matrix S(lambda), a pencil built
from S alone and independent of the ansatz space under test.  Pencil
and reference spectra both come from one eigensolver (see solve_pencil),
with one finiteness rule and one regularity test (its shift search).
The two are compared as multisets by a greedy nearest-neighbour
matching; agreement at tolerance, together with the ansatz residual, is
the linearization verdict.  Full Z-rank of the reduced diagonal parts, the
sufficient-condition certificate, is computed when a report's ``full_z_rank`` is read.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    BlockDims,
    Realization,
    _assemble_lift,
    _kept,
    _lift,
    _solve_lift,
    build_system_matrix,
    eval_polymat,
    max_entry,
    numerical_rank,
    probe_solve,
    transpose_realization,
)
from .errors import (
    DegenerateVector,
    DimensionError,
    InterpolationError,
    NotAMember,
    PoleError,
    SingularSystem,
    SolverFailure,
    ZeroAnsatz,
)
from .io import encode_float, encode_vector
from .spaces import (
    SPACE_L2G,
    AnsatzPencil,
    membership,
    residual_ansatz,
)

__all__ = [
    "SpectralReport",
    "ZRankCertificate",
    "PencilEigs",
    "RecoveredVector",
    "system_zeros",
    "solve_pencil",
    "pencil_eigvals",
    "z_rank",
    "verify_linearization",
    "default_tol_res",
    "lift_right",
    "recover_right",
    "lift_left",
    "recover_left",
    "f_map",
    "g_map",
    "nonpole_samples",
    "match_multisets",
]

#: |beta| below this fraction of ||(alpha, beta)|| counts as infinite.
INF_EIG_RTOL = 1e-10

#: The eigensolver's shifts: in units of ||Y||_F/||X||_F, then unscaled.
SHIFT_POINTS = (0.83 + 0.31j, -1.27 + 0.66j, 0.44 - 1.52j, 1.61 + 1.17j, -0.52 - 1.87j)


def system_zeros(R: Realization) -> np.ndarray:
    """Multiset of system zeros: the finite eigenvalues of S(lambda).

    They are the finite eigenvalues of the block companion pencil
    ``lambda X + Y`` of ``S(lambda) = sum_j lambda^j S_j`` of degree d, with
    ``X = diag(S_d, sI, ..., sI)``, first block row ``[S_{d-1}, ..., S_0]`` of ``Y``
    and ``-sI`` on its block subdiagonal; s is the data's scale (``Realization.scale``):
    a left factor ``diag(I, sI, ..., sI)`` that leaves the eigenvalues alone and the
    reference the same at every scale.  Pencil and reference share one eigensolver,
    one finiteness rule and one regularity test: SingularSystem when its shift search
    finds S(lambda) singular.  The zeros are computed once per realization and kept
    on it as a read-only array; SingularSystem keeps nothing and is raised on every call.
    """
    return _kept(R, "_zeros", _companion_zeros)


def _system_rows(R: Realization) -> tuple:
    """``([S_d ... S_0], (||S_0||_F, ..., ||S_d||_F))``, d = max(m, k): the coefficient row
    and the coefficient norms of S(lambda), kept on R for the reference and for recovery."""
    S = build_system_matrix(R).coeffs
    return np.hstack(S[::-1]), tuple(_norm(c) for c in S)


def _companion_zeros(R: Realization) -> np.ndarray:
    row, norms_S = _kept(R, "_system_rows", _system_rows)  # [S_d ... S_0], as recovery reads it
    n, d = row.shape[0], len(norms_S) - 1
    X = R.scale * np.eye(n * d, dtype=complex)
    X[:n, :n] = row[:, :n]
    Y = np.zeros_like(X)
    Y[:n] = row[:, n:]
    Y[n:, :-n] = -R.scale * np.eye(n * (d - 1))
    return solve_pencil(X, Y, left=False, right=False).eigenvalues


@dataclass(frozen=True)
class PencilEigs:
    """Finite eigentriples of a pencil, unit-norm eigenvectors columnwise.

    A side that was not asked of :func:`solve_pencil` is None.
    ``backward_errors`` holds ``||(lambda X + Y) u|| / (|lambda| ||X||_F + ||Y||_F)``
    per unit right vector u, and is None when none was computed.
    """

    eigenvalues: np.ndarray
    right: np.ndarray | None
    left: np.ndarray | None
    backward_errors: np.ndarray | None


def pencil_eigvals(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Finite eigenvalues of ``lambda X + Y`` (no eigenvectors)."""
    return solve_pencil(X, Y, left=False, right=False).eigenvalues


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a vector, the Frobenius norm of a matrix, safe from overflow and
    underflow; np.linalg.norm costs more than the work at pencil sizes.  NaN exactly when
    an entry is NaN or infinite: finite entries whose norm overflows give inf.  Only a
    norm that is not a positive float looks at the entries again."""
    norm = math.sqrt(np.vdot(v, v).real)  # NaN when complex products overflow
    if not 0.0 < norm < math.inf and v.any():
        if not np.isfinite(v).all():
            return math.nan
        with np.errstate(over="ignore"):  # the modulus of a finite entry can overflow
            big = float(np.max(np.abs(v)))
        norm = big * math.sqrt(np.vdot(v / big, v / big).real) if big < math.inf else math.inf
    return norm


def solve_pencil(X, Y, *, left: bool = True, right: bool = True) -> PencilEigs:
    """Finite eigenvalues and eigenvectors of ``lambda X + Y``.

    ``(lambda X + Y) u = 0`` and ``y* (lambda X + Y) = 0`` hold for the
    returned right/left vectors; ``left=False`` or ``right=False`` leaves
    that side out (None).  Eigenvalues with ``|beta| <= INF_EIG_RTOL *
    ||(alpha, beta)||`` are treated as infinite and dropped.

    numpy's eig of ``(sigma X + Y)^{-1} X`` gives the result when every
    finite right pair, and every left pair when asked for, has a backward
    error of at most ``10 N eps``; else, or when eig fails, QZ on (Y, -X)
    does.  This is the package's one eigensolver and its one regularity
    test: SingularSystem when no shift sigma passes the condition test of
    :func:`_shift_invert`.  ValueError names X or Y when it has a NaN or infinite entry.
    ``||X||_F`` and ``||Y||_F`` are taken once; the shift search and both backward-error
    checks read that pair.  scipy is imported only for the QZ fallback.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.shape != Y.shape or X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionError("pencil coefficients must be square and of equal shape")
    norms = _norm(X), _norm(Y)
    shifted = _shift_invert(X, Y, left, norms) if X.size else None
    if shifted is not None:
        eigs = _finite_pairs(X, Y, norms, *shifted)
        bound = 10 * X.shape[0] * np.finfo(float).eps
        # a left vector y of lambda X + Y is a right one of conj(lambda) X* + Y*, and
        # ||X*||_F = ||X||_F (the left errors are only compared with the bound)
        if (eigs.backward_errors <= bound).all() and (not left or (_backward_errors(
                X.conj().T, Y.conj().T, norms, eigs.eigenvalues.conj(), eigs.left) <= bound).all()):
            return eigs if right else PencilEigs(eigs.eigenvalues, None, eigs.left,
                                                 eigs.backward_errors)
    import scipy.linalg

    try:
        out = scipy.linalg.eig(Y, -X, left=left, right=right, homogeneous_eigvals=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover  (scipy raises numpy's class)
        raise SolverFailure(str(exc)) from exc
    # a bare (alpha, beta) array without vectors; else left vectors come first
    ab, *vecs = out if left or right else (out,)
    return _finite_pairs(X, Y, norms, ab[0], ab[1], vecs[0] if left else None,
                         vecs[-1] if right else None)


def _shift_invert(X: np.ndarray, Y: np.ndarray, left: bool, norms: tuple[float, float]):
    """``(alpha, beta, left, right)`` from numpy's eig of ``M = (sigma X + Y)^{-1} X`` at
    the first shift whose probe reciprocal condition estimate is above 1e-8 (None if
    eig fails).  The shifts are ``SHIFT_POINTS`` times ``||Y||_F / ||X||_F``, then the
    same unscaled, which rescues regular pencils whose blocks differ much in scale;
    SingularSystem when none qualifies.  ``norms`` is ``(_norm(X), _norm(Y))``; the two
    also tell a non-finite X or Y (ValueError); when a norm of finite entries
    overflows, only the unscaled shifts run.

    ``M u = mu u`` and ``z* M = mu z*`` give ``lambda = (sigma mu - 1) / mu`` with
    right vector u and left vector ``(sigma X + Y)^{-H} z``.  The ``z*`` are the
    rows of ``U^{-1}``, so the left vectors are the columns of ``((sigma X + Y) U)^{-H}``.
    """
    norm_x, norm_y = norms
    for name, norm in (("X", norm_x), ("Y", norm_y)):
        if math.isnan(norm):
            raise ValueError(f"pencil.{name} must be finite")
    rho = norm_y / norm_x if norm_x > 0.0 and norm_y > 0.0 else 1.0
    scales = (rho, 1.0) if rho != 1.0 and 0.0 < rho < math.inf else (1.0,)
    for sigma in (c * s for c in scales for s in SHIFT_POINTS):
        K = sigma * X + Y
        M, rcond = probe_solve(K, X)
        if rcond > 1e-8:
            break
    else:
        raise SingularSystem("pencil is singular: sigma X + Y is ill conditioned at every shift")
    try:
        mu, u = np.linalg.eig(M)
        vl = np.linalg.inv(K @ u).conj().T if left else None
    except np.linalg.LinAlgError:
        return None
    return sigma * mu - 1.0, mu, vl, u


def _column_norms(V: np.ndarray, bound: float = math.inf) -> np.ndarray:
    """Column 2-norms of V, by the expression ``np.linalg.norm(V, axis=0)`` evaluates.  A
    column whose sum of squares is not a positive float (it overflowed or underflowed,
    or the column is zero) is taken again by :func:`_norm`, which rescales it.  ``bound``
    bounds the moduli of V's entries where the caller knows it: below 2^500 no sum of
    squares can overflow (for fewer than 2^23 rows), and no errstate context is entered."""
    with np.errstate(over="ignore") if not bound < 2.0 ** 500 else contextlib.nullcontext():
        sq = np.add.reduce((V.conj() * V).real, axis=0)
    norms, listed = np.sqrt(sq), sq.tolist()
    if listed and not 0.0 < min(listed) <= max(listed) < math.inf:
        for j in np.flatnonzero(~((sq > 0.0) & (sq < math.inf))):
            norms[j] = _norm(V[:, j])
    return norms


def _backward_errors(X, Y, norms, lam, V) -> np.ndarray:
    """``||(lambda X + Y) u||`` over ``|lambda| ||X||_F + ||Y||_F``, per unit column u of V,
    for finite eigenvalues lambda: ``|lambda| < 1 / INF_EIG_RTOL`` bounds every entry of
    the residuals by ``||X||_F / INF_EIG_RTOL + ||Y||_F``."""
    norm_x, norm_y = norms  # ||X||_F, ||Y||_F
    return (_column_norms(lam * (X @ V) + Y @ V, norm_x / INF_EIG_RTOL + norm_y)
            / np.maximum(np.abs(lam) * norm_x + norm_y, 1e-300))


def _finite_pairs(X, Y, norms, alpha, beta, vl, vr) -> PencilEigs:
    """Finite eigentriples from homogeneous eigenvalues and raw vectors (None if absent).
    Right vectors come from ``numpy.linalg.eig`` or QZ with unit columns; the left ones
    of the shift-and-invert path are rows of an inverse, of any size."""
    finite = np.abs(beta) > INF_EIG_RTOL * np.hypot(np.abs(alpha), np.abs(beta))

    def unit(V, bound):
        V = V[:, finite]
        return V / np.maximum(_column_norms(V, bound), 1e-300)

    vl = None if vl is None else unit(vl, math.inf)
    vr = None if vr is None else unit(vr, 1.0)
    lam = alpha[finite] / beta[finite]
    eta = None if vr is None else _backward_errors(X, Y, norms, lam, vr)
    return PencilEigs(eigenvalues=lam, right=vr, left=vl, backward_errors=eta)


def match_multisets(a, b) -> tuple[list[tuple[int, int, float]], float]:
    """Greedy nearest-neighbour matching of two equal-size multisets.

    Entries of ``a`` are visited in decreasing magnitude and paired with
    the nearest unused entry of ``b`` under the scale-aware distance
    ``|a - b| / max(1, |a|, |b|)``.  This is not an optimal assignment;
    the verdict reads the largest distance among these greedy pairs.
    Rows keep their nearest entry, found in one pass, up to the first entry that
    repeats (no earlier row took it); only from there does the masked loop run.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size != b.size:
        raise DimensionError("multisets differ in size")
    if a.size == 0:
        return [], 0.0
    abs_a, abs_b = np.abs(a), np.abs(b)
    dist = np.abs(a[:, None] - b) / np.maximum(np.maximum(abs_a[:, None], abs_b), 1.0)
    order = np.argsort(-abs_a, kind="stable")
    near = dist.argmin(axis=1)[order]
    cols, n = near.tolist(), a.size
    p = n if len(set(cols)) == n else next(q for q, j in enumerate(cols) if j in cols[:q])
    pairs = list(zip(order.tolist(), cols, dist[order, near].tolist()))[:p]
    if p < n:
        dist[:, cols[:p]] = np.inf
        for i in order[p:]:
            j = int(np.argmin(dist[i]))
            pairs.append((int(i), j, float(dist[i, j])))
            dist[:, j] = np.inf
    return pairs, max(d for _, _, d in pairs)


@dataclass(frozen=True)
class ZRankCertificate:
    """Numerical ranks of the free blocks in the reduced diagonal parts."""

    rank_L: int
    full_L: bool
    rank_K: int
    full_K: bool
    transform_M: np.ndarray
    transform_N: np.ndarray


def _unit_mapping(v: np.ndarray) -> np.ndarray:
    """Nonsingular M with M v = e_1: the Householder reflector ``I - 2 u u* / u* u`` with
    ``u = v + a ||v|| e_1`` and ``a = e^{i arg v_0}`` (1 if v_0 = 0) sends v to
    ``-a ||v|| e_1``, and row 0 is divided by ``-a ||v||``; u is nonzero when v is."""
    norm = _norm(v)
    if norm == 0.0:
        raise ZeroAnsatz("ansatz vector is zero")
    a = v[0] / abs(v[0]) if v[0] else 1.0
    u = np.concatenate(([v[0] + a * norm], v[1:]))
    u /= _norm(u)
    M = u[:, None] * (-2.0 * u.conj())
    M.flat[::v.size + 1] += 1.0
    M[0] /= -a * norm
    return M


def _z_block_rank(Ytl: np.ndarray, v: np.ndarray, blk: int):
    deg = v.size
    M = _unit_mapping(v)
    if deg == 1:
        return 0, True, M
    # (M kron I_blk) Ytl below its first block row, with M applied blockwise
    Z = (M[1:] @ Ytl[:, : (deg - 1) * blk].reshape(deg, -1)).reshape((deg - 1) * blk, -1)
    rank = numerical_rank(Z, 1e-10, floor=float(np.max(np.abs(Ytl))))
    return rank, rank == (deg - 1) * blk, M


def z_rank(P: AnsatzPencil, R: Realization) -> ZRankCertificate:
    """Z-rank certificate of both diagonal parts of a space member.

    A nonsingular M with ``M v = e_1`` reduces the top partition to the
    canonical form whose lower-left constant block is the free block Z;
    the rank of Z does not depend on the choice of M.  The rank threshold
    is 1e-10 relative to the larger of ``sigma_max(Z)`` and the largest
    entry of the reduced Y partition, so a Z that vanishes in exact
    arithmetic ranks 0 rather than by its rounding noise.  Second-space
    members are reduced through their transposes.  Raises ZeroAnsatz when
    either ansatz vector vanishes.
    """
    t = P.dims.top
    Y = P.Y.T if P.space == SPACE_L2G else P.Y
    rank_L, full_L, M = _z_block_rank(Y[:t, :t], P.v, P.dims.n)
    rank_K, full_K, N = _z_block_rank(Y[t:, t:], P.w, P.dims.r)
    return ZRankCertificate(rank_L=rank_L, full_L=full_L, rank_K=rank_K, full_K=full_K,
                            transform_M=M, transform_N=N)


def nonpole_samples(R: Realization, count: int, seed: int = 7) -> np.ndarray:
    """Deterministic sample points on an annulus, away from poles of G.

    Point j > seed of a Kronecker sequence has radius ``0.4 + 1.2 frac(j phi)``
    (phi the golden ratio) and angle ``2 pi frac(j sqrt 2)``.  A candidate is kept when
    the probe reciprocal condition estimate of A(lambda) (:func:`probe_solve`, with
    ``||A(lambda)||_1`` floored at the data's own scale ``max_j |A_j|``, so the points
    do not change when A is scaled) is above 1e-3, so downstream solves stay well
    conditioned; the pole guard reads the same estimate.  An exactly zero pivot
    rejects its own candidate.  The candidates are tested one at a time, up to
    ``200 count`` in all.
    """
    out, no_rhs = [], np.empty((R.n, 0))
    with np.errstate(all="ignore"):  # an A(lambda) that overflows reads rcond 0
        for j in range(seed + 1, seed + 1 + 200 * count):
            if len(out) == count:
                break
            lam = (0.4 + 1.2 * (j * 1.618033988749895 % 1)) * np.exp(2j * np.pi * (j * 2**0.5 % 1))
            if probe_solve(eval_polymat(R.A, lam), no_rhs, R.A.scale)[1] > 1e-3:
                out.append(lam)
    if len(out) < count:
        raise InterpolationError("could not find enough sample points away from poles")
    return np.array(out, dtype=complex)


@dataclass(frozen=True)
class SpectralReport:
    """Outcome of a linearization verification run.

    ``full_z_rank``, ``(full_L, full_K)`` of :func:`z_rank` on the member with the pair that
    membership fitted ((False, False) after a membership failure or for a zero pair), is
    computed at its first read and kept.  ``certificate_of`` is what it reads, ``(member,
    R)`` or None; verify gives the member its own copy of Y (N^2 complex, 2.4 MiB at
    N = 400), so that later writes to the caller's pencil cannot change the certificate.
    """

    pencil_eigs: np.ndarray
    oracle_roots: np.ndarray
    matching: list = field(default_factory=list)
    max_eig_error: float = np.inf
    eig_residuals: list = field(default_factory=list)
    verdict: str = "fail"
    reason: str = ""
    ansatz_residual: float = np.inf
    certificate_of: InitVar[tuple | None] = None

    def __post_init__(self, certificate_of):
        # kept under its own name, so dataclasses.replace carries it over
        object.__setattr__(self, "certificate_of", certificate_of)

    @cached_property
    def full_z_rank(self) -> tuple:
        if self.certificate_of is None:
            return (False, False)
        try:
            cert = z_rank(*self.certificate_of)
        except ZeroAnsatz:
            return (False, False)
        return (cert.full_L, cert.full_K)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "pencil_eigs": encode_vector(self.pencil_eigs),
            "oracle_roots": encode_vector(self.oracle_roots),
            "matching": [[int(i), int(j), encode_float(d)] for (i, j, d) in self.matching],
            "max_eig_error": encode_float(self.max_eig_error),
            "eig_residuals": [encode_float(x) for x in self.eig_residuals],
            "ansatz_residual": encode_float(self.ansatz_residual),
            "full_z_rank": [bool(self.full_z_rank[0]), bool(self.full_z_rank[1])],
        }


def default_tol_res(P: AnsatzPencil, R: Realization) -> float:
    """Default ansatz-residual tolerance ``1e-10 (p + s)``, p the largest entry of the
    pencil and s that of the data (``Realization.scale``): both set the residual's rounding."""
    return 1e-10 * (max_entry(P.X, P.Y) + R.scale)


def verify_linearization(P: AnsatzPencil, R: Realization,
                         tol_res: float | None = None,
                         tol_eig: float = 1e-6) -> SpectralReport:
    """Check that a space member is a linearization of the system matrix.

    Three checks run: (i) the ansatz residual at ten sample points away
    from poles, (ii) the full-Z-rank certificate on both diagonal parts
    (reported, not required; it is the sufficient condition, computed when the
    report's ``full_z_rank`` is first read), and (iii) spectral equivalence,
    i.e. the finite pencil eigenvalues match the system zeros as multisets at
    ``tol_eig`` under the scale-aware greedy matching.  The verdict is pass
    exactly when (i) and (iii) hold.  First, :func:`membership` tests the pencil
    against its space; the ansatz pair it reads back from X and Y, not the one
    stored in P, drives (i) and (ii).
    The reference zeros, sample points, their transfer and lift data and the fit rows
    depend on R alone: the first call for an R object computes and keeps them, read-only.
    DimensionError when ``P.dims`` are not ``R.dims``.
    """
    if P.dims != R.dims:
        raise DimensionError(f"block dims {P.dims} do not match the realization's {R.dims}")
    tol_res = default_tol_res(P, R) if tol_res is None else tol_res
    zeros = system_zeros(R)

    def fail(reason, pencil_eigs=None, **kw):
        if pencil_eigs is None:
            pencil_eigs = np.array([], dtype=complex)
        return SpectralReport(pencil_eigs=pencil_eigs, oracle_roots=zeros,
                              verdict="fail", reason=reason, **kw)

    try:
        v, w = membership(P.X, P.Y, R, P.space)
    except NotAMember as exc:
        return fail(f"membership: {exc}")
    # X and Y carry the pair; P checked them when it was made, and a member's pair is finite
    P, Q = object.__new__(AnsatzPencil), P
    vars(P).update(vars(Q), v=v, w=w)
    member = object.__new__(AnsatzPencil)  # z_rank reads Y and the (new) fitted pair alone
    vars(member).update(vars(P), X=None, Y=np.copy(P.Y))

    res = residual_ansatz(P, R, _kept(R, "_samples", lambda R: nonpole_samples(R, 10)))

    try:
        eigs = solve_pencil(P.X, P.Y, left=False)
    except SingularSystem:
        return fail("pencil is singular (det vanishes identically)",
                    ansatz_residual=res, certificate_of=(member, R))
    if eigs.eigenvalues.size != zeros.size:
        return fail(
            f"eigenvalue count mismatch: pencil has {eigs.eigenvalues.size} finite, "
            f"oracle has {zeros.size}",
            pencil_eigs=eigs.eigenvalues, ansatz_residual=res, certificate_of=(member, R))

    pairs, worst = match_multisets(eigs.eigenvalues, zeros)

    ok = res <= tol_res and worst <= tol_eig
    reason = "" if ok else (
        f"ansatz residual {res:.2e} > {tol_res:.2e}" if res > tol_res
        else f"eigenvalue mismatch {worst:.2e} > {tol_eig:.2e}")
    return SpectralReport(
        pencil_eigs=eigs.eigenvalues, oracle_roots=zeros, matching=pairs,
        max_eig_error=worst, eig_residuals=eigs.backward_errors.tolist(),
        verdict="pass" if ok else "fail", reason=reason,
        ansatz_residual=res, certificate_of=(member, R))


def lift_right(R: Realization, x: np.ndarray, lam0: complex) -> np.ndarray:
    """Lift a transfer-function null vector to pencil eigenvector shape.

    Returns ``[Lambda_{m-1} kron A(lam0)^{-1} B x ; Lambda_{k-1} kron x]``.
    """
    return _lift(R, lam0, np.asarray(x, dtype=complex).reshape(-1, 1))[0][:, 0]


def lift_left(R: Realization, y: np.ndarray, lam0: complex) -> np.ndarray:
    """Left analogue: ``[conj(Lambda) kron (-C A^{-1})* y ; conj(Lambda) kron y]``, the
    conjugated :func:`lift_right` of ``conj(y)`` on :func:`transpose_realization`."""
    return lift_right(transpose_realization(R), np.conj(y), lam0).conj()


@dataclass(frozen=True)
class RecoveredVector:
    """Eigenvector recovered from a lifted pencil eigenvector.

    ``x`` is unit norm, read from the largest bottom block (:func:`recover_right`), and
    ``system_residual`` is the backward error of ``z = [F; x]`` as a null vector of
    S(lam0), with F read from the top partition of the pencil vector (no solve).

    ``transfer_residual`` (``||G(lam0) x||`` for a right vector, ``||x* G(lam0)||`` for a
    left one) and ``structural_residual`` (the distance ``||c u - L||`` of the pencil
    vector u to the lift L of x at the best scale c) are computed at their first read
    and kept.  Both come from one guarded solve ``F = A(lam0)^{-1} B x``, made at the
    first read of either; they are NaN where the pole guard calls lam0 a pole, and when
    ``lifted_from`` is None.  ``lifted_from`` is what they read, ``(u, lam0, x, R)`` of
    the right-side recovery (on the transpose realization for a left vector): the
    recovery's own copies of u and of x as a column.
    """

    x: np.ndarray
    system_residual: float
    lifted_from: InitVar[tuple | None] = None

    def __post_init__(self, lifted_from):
        # kept under its own name, so dataclasses.replace carries it over
        object.__setattr__(self, "lifted_from", lifted_from)

    @cached_property
    def _solved(self):
        """``(F, G(lam0) x)`` of :func:`core._solve_lift`, or None at a pole or without state."""
        if self.lifted_from is None:
            return None
        _, lam0, col, R = self.lifted_from
        try:
            return _solve_lift(R, lam0, col)
        except PoleError:
            return None

    @cached_property
    def transfer_residual(self) -> float:
        return math.nan if self._solved is None else _norm(self._solved[1][:, 0])

    @cached_property
    def structural_residual(self) -> float:
        if self._solved is None:
            return math.nan
        u, lam0, col, R = self.lifted_from
        L = _assemble_lift(R, lam0, self._solved[0], col)[:, 0]
        c = np.vdot(u, L) / _norm(u) ** 2
        return _norm(c * u - L)


def recover_right(u: np.ndarray, dims: BlockDims, R: Realization,
                  lam0: complex) -> RecoveredVector:
    """Extract the transfer-function eigenvector from a right pencil eigenvector.

    A first-space eigenvector is ``u = [Lambda_{m-1}(lam0) kron F ; Lambda_{k-1}(lam0) kron x]``
    with ``[F; x]`` in the null space of S(lam0) (``F = A(lam0)^{-1} B x`` away from poles).
    x is the bottom block of largest norm divided by its power of lam0, at unit norm
    (DegenerateVector when that block is negligible; the trailing block when
    ``|lam0| <= 1`` and u is a lift).  Each top block divided by its power, at the scale
    that took the bottom block to x, is a candidate F (0 where that power is not a
    usable float).  ``system_residual`` is the smallest normwise backward error
    ``||S(lam0) z|| / ((sum_j |lam0|^j ||S_j||_F) ||z||)`` of ``z = [F; x]`` over the m
    candidates (Tisseur, LAA 309, 2000).  It takes one product of the coefficient row
    ``[S_d ... S_0]`` with the power stacks of the z, so it forms no A(lam0), and it is
    unchanged when the data are scaled by any c > 0.  No solve with A(lam0) runs: the
    transfer and structural residuals are computed when read (:class:`RecoveredVector`).
    DimensionError when ``dims`` are not ``R.dims`` or u does not have their size.
    """
    if dims != R.dims:
        raise DimensionError(f"block dims {dims} do not match the realization's {R.dims}")
    u = np.array(u, dtype=complex).reshape(-1)  # a copy: the structural residual reads it
    if u.shape != (dims.size,):
        raise DimensionError(f"vector length must be {dims.size}")
    norm_u = _norm(u)
    if norm_u == 0.0:
        raise DegenerateVector("zero vector cannot be recovered from")
    blocks = u[dims.top:].reshape(dims.k, dims.r)  # Lambda_{k-1} kron x
    norms = [_norm(b) for b in blocks]  # the largest block carries the least rounding
    j = norms.index(max(norms))
    power, norm_j = lam0 ** (dims.k - 1 - j), norms[j]
    if norm_j <= 1e-12 * norm_u or not 1e-300 <= abs(power) < math.inf:
        raise DegenerateVector("no block of the bottom partition is usable")
    x = blocks[j] / (norm_j * power / abs(power))  # unit norm
    row, norms_S = _kept(R, "_system_rows", _system_rows)
    powers = [lam0 ** i for i in range(len(norms_S) - 1, -1, -1)]
    # which top block reads F best depends on the ansatz pair, which u does not carry:
    # the leading block of a DL member with pair (e_m, e_k) can be off by 1e-10
    scales = [abs(power) / (norm_j * p) if 1e-300 <= abs(p) < math.inf else 0.0
              for p in powers[-dims.m:]]
    Z = np.empty((dims.n + dims.r, dims.m), dtype=complex)  # the candidate z, columnwise
    Z[:dims.n] = u[:dims.top].reshape(dims.m, dims.n).T * scales  # Lambda_{m-1} kron F
    Z[dims.n:] = x[:, None]
    weight, modulus = 0.0, float(abs(lam0))
    for norm in reversed(norms_S):
        weight = weight * modulus + norm
    SZ = row @ (np.array(powers)[:, None, None] * Z).reshape(-1, dims.m)  # S(lam0) z
    # one pass of column norms for S(lam0) z and z, whose entries are at most
    # weight ||z|| and ||z||
    both = _column_norms(np.concatenate([SZ, Z], axis=1),
                         max(weight, 1.0) * (norm_u * max(map(abs, scales)) + 1.0))
    eta = both[:dims.m] / np.maximum(weight * both[dims.m:], 1e-300)
    return RecoveredVector(x=x, system_residual=float(eta.min()),
                           lifted_from=(u, lam0, x.reshape(-1, 1).copy(), R))


def recover_left(u: np.ndarray, dims: BlockDims, R: Realization,
                 lam0: complex) -> RecoveredVector:
    """Left analogue of :func:`recover_right`: a left pencil eigenvector u of a second-space
    member lifts ``y`` with ``y* G(lam0) = 0``, so ``conj(u)`` lifts ``conj(y)`` on
    :func:`transpose_realization`.  ``x`` is y, and ``system_residual`` that of the
    left null vector of S(lam0); the transfer residual ``||y* G(lam0)||`` and the
    structural residual, read later, are those of ``conj(u)`` on the transpose."""
    rec = recover_right(np.conj(u), dims, transpose_realization(R), lam0)
    return RecoveredVector(rec.x.conj(), rec.system_residual, rec.lifted_from)


def f_map(R: Realization, x: np.ndarray, lam0: complex) -> np.ndarray:
    """Null-space map ``x -> [A(lam0)^{-1} B x ; x]``: the blocks of :func:`lift_right`
    that multiply lam0^0, from the solve alone.

    Sends right null vectors of G(lam0) to right null vectors of S(lam0).
    """
    col = np.asarray(x, dtype=complex).reshape(-1, 1)
    return np.concatenate([_solve_lift(R, lam0, col)[0][:, 0], col[:, 0]])


def g_map(R: Realization, y: np.ndarray, lam0: complex) -> np.ndarray:
    """Null-space map ``y -> [(-C A(lam0)^{-1})* y ; y]`` for left vectors: the conjugated
    :func:`f_map` of ``conj(y)`` on :func:`transpose_realization`."""
    return f_map(transpose_realization(R), np.conj(y), lam0).conj()
