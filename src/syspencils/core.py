"""Matrix polynomials, state-space realizations and transfer functions.

The central objects are ``MatrixPolynomial`` (a dense list of complex
coefficient matrices) and ``Realization``, the quadruple

    A(lambda): n x n polynomial of degree m >= 1,
    B:         n x r constant,
    C:         r x n constant,
    D(lambda): r x r polynomial of degree k >= 1,

from which the system matrix ``S(lambda) = [[A, -B], [C, D]]`` and the
transfer function ``G(lambda) = C A(lambda)^{-1} B + D(lambda)`` derive.
Degrees are structural: trailing zero coefficients are kept as given.
All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, PoleError

__all__ = [
    "MatrixPolynomial",
    "Realization",
    "BlockDims",
    "eval_polymat",
    "lambda_vector",
    "padded_identity",
    "build_system_matrix",
    "eval_transfer",
    "solve_state",
    "solve_state_left",
    "transpose_realization",
    "is_symmetric_realization",
    "is_hermitian_realization",
]

#: Relative threshold below which A(lambda) counts as singular (pole test).
POLE_RTOL = 1e-12


def check_finite(owner: str, **fields) -> None:
    """Raise ValueError naming the first field with a NaN or infinite entry.

    A field is an array, a tuple of arrays (polynomial coefficients) or None.
    All entries are tested in one vectorized pass, since per-call overhead
    outweighs the work for the small arrays of a pencil build; only a
    failed pass looks for the field to name.
    """
    arrays = [(name, np.asarray(a)) for name, value in fields.items()
              for a in (value if isinstance(value, tuple) else (value,)) if a is not None]
    if np.isfinite(np.concatenate([a.ravel() for _, a in arrays])).all():
        return
    for name, a in arrays:
        if not np.isfinite(a).all():
            raise ValueError(f"{owner}.{name} must be finite")


def max_entry(*arrays) -> float:
    """Largest modulus of any entry of the arrays (0 when they are empty), in one pass."""
    flat = np.concatenate([np.ravel(a) for a in arrays])
    return float(np.abs(flat).max()) if flat.size else 0.0


def _freeze(a) -> np.ndarray:
    """A read-only complex copy of ``a``."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _kept(R: "Realization", name: str, compute):
    """``compute(R)``, kept as ``vars(R)[name]`` from the first call, with each array of it
    (or of the tuple it is) made read-only in place: how a module keeps what it derives
    from R alone.  A call whose computation raises keeps nothing."""
    try:
        return R.__dict__[name]
    except KeyError:
        pass
    value = compute(R)
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    R.__dict__[name] = value
    return value


@dataclass(frozen=True)
class MatrixPolynomial:
    """Dense matrix polynomial ``P(lambda) = sum_j lambda^j P_j``.

    Coefficients are stored in ascending degree order and are never empty;
    the zero polynomial is a single zero coefficient.  The degree is
    structural: trailing zero coefficients are preserved, so a realization
    can carry e.g. a degree-2 polynomial whose leading coefficient happens
    to vanish.
    """

    coeffs: tuple[np.ndarray, ...]
    rows: int = field(init=False)
    cols: int = field(init=False)

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise DimensionError("a matrix polynomial needs at least one coefficient")
        frozen = tuple(_freeze(c) for c in self.coeffs)
        for c in frozen:
            if c.ndim != 2:
                raise DimensionError(f"coefficients must be 2-D, got shape {c.shape}")
            if c.shape != frozen[0].shape:
                raise DimensionError(
                    f"coefficient shapes disagree: expected {frozen[0].shape}, got {c.shape}")
        rows, cols = frozen[0].shape
        object.__setattr__(self, "coeffs", frozen)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_scalars(cls, *scalars) -> "MatrixPolynomial":
        """1 x 1 polynomial from scalar coefficients in ascending degree."""
        return cls(tuple(np.array([[s]], dtype=complex) for s in scalars))

    def coefficient(self, j: int) -> np.ndarray:
        """Coefficient of lambda^j, zero-padded beyond the stored degree."""
        if 0 <= j <= self.degree:
            return self.coeffs[j]
        return np.zeros((self.rows, self.cols), dtype=complex)

    def __call__(self, lam) -> np.ndarray:
        return eval_polymat(self, lam)

    def transpose(self) -> "MatrixPolynomial":
        return MatrixPolynomial(tuple(c.T for c in self.coeffs))

    @cached_property
    def scale(self) -> float:
        """Largest modulus of any coefficient entry, computed once and stored."""
        return max_entry(*self.coeffs)


def _points(lam):
    """A 1-D array of p points as shape (p, 1, 1), one matrix per point; else ``lam``."""
    return lam[:, None, None] if isinstance(lam, np.ndarray) and lam.ndim == 1 else lam


def eval_polymat(P: MatrixPolynomial, lam) -> np.ndarray:
    """Evaluate ``P(lambda)`` by Horner's scheme, into a new writable array; a 1-D array
    of p points gives shape (p, rows, cols), each slice the scalar call's bit for bit.
    Any other array of points broadcasts against (rows, cols), at every degree."""
    at = _points(lam)
    *rest, acc = P.coeffs
    if not rest:  # a constant: one copy of it per point
        return np.array(np.broadcast_to(acc, np.broadcast_shapes(np.shape(at), acc.shape)))
    for c in reversed(rest):
        acc = acc * at + c
    return acc


def lambda_vector(d: int, lam) -> np.ndarray:
    """Column ``[lambda^{d-1}, ..., lambda, 1]`` of descending powers.

    The trailing entry is always 1; this ordering matches every ansatz
    identity in the package.  An array of points gives one power stack per
    point along a new last axis, each bitwise equal to the scalar call's.
    """
    if d < 1:
        raise DimensionError("lambda_vector needs d >= 1")
    return np.asarray(lam, dtype=complex)[..., None] ** np.arange(d - 1, -1, -1)


def padded_identity(r: int, n: int) -> np.ndarray:
    """The r x r identity padded with ``n - r`` zero columns (r <= n)."""
    if r > n:
        raise DimensionError(f"padded identity needs r <= n, got r={r}, n={n}")
    out = np.zeros((r, n))
    out[:, :r] = np.eye(r)
    return out


@dataclass(frozen=True)
class BlockDims:
    """Block partition (m, n, k, r) used by every pencil-space operation.

    The pencils act on C^{mn+kr}; the top partition is an m x m grid of
    n x n blocks, the bottom a k x k grid of r x r blocks.
    """

    m: int
    n: int
    k: int
    r: int

    def __post_init__(self):
        if min(self.m, self.n, self.k, self.r) < 1:
            raise DimensionError(f"block dims must be positive, got {self}")

    @property
    def top(self) -> int:
        return self.m * self.n

    @property
    def bottom(self) -> int:
        return self.k * self.r

    @property
    def size(self) -> int:
        return self.top + self.bottom


@dataclass(frozen=True)
class Realization:
    """State-space data (A(lambda), B, C, D(lambda)) of a transfer function.

    ``A`` is n x n of degree m >= 1 and ``D`` is r x r of degree k >= 1;
    both degrees are structural.  Regularity is not enforced here;
    :func:`syspencils.spectra.system_zeros` raises SingularSystem when the
    eigensolver's regularity test finds the system matrix S(lambda) singular.
    The scale and dims are cached properties; what a module derives from R alone, it
    keeps on R where it reads it, by :func:`_kept`.
    """

    A: MatrixPolynomial
    B: np.ndarray
    C: np.ndarray
    D: MatrixPolynomial

    def __post_init__(self):
        B = _freeze(self.B)
        C = _freeze(self.C)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        n, r = self.A.rows, self.D.rows
        if self.A.cols != n:
            raise DimensionError("A(lambda) must be square")
        if self.D.cols != r:
            raise DimensionError("D(lambda) must be square")
        if self.A.degree < 1 or self.D.degree < 1:
            raise DimensionError("both A and D need degree >= 1")
        if B.shape != (n, r):
            raise DimensionError(f"B must be {n}x{r}, got {B.shape}")
        if C.shape != (r, n):
            raise DimensionError(f"C must be {r}x{n}, got {C.shape}")
        check_finite("Realization", A=self.A.coeffs, B=B, C=C, D=self.D.coeffs)

    @cached_property
    def scale(self) -> float:
        """Largest modulus of any entry of A_j, B, C or D_j, computed once and stored."""
        return max(self.A.scale, self.D.scale, max_entry(self.B, self.C))

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def r(self) -> int:
        return self.D.rows

    @property
    def m(self) -> int:
        return self.A.degree

    @property
    def k(self) -> int:
        return self.D.degree

    @cached_property
    def dims(self) -> BlockDims:
        return BlockDims(self.m, self.n, self.k, self.r)


def build_system_matrix(R: Realization) -> MatrixPolynomial:
    """Assemble ``S(lambda) = [[A(lambda), -B], [C, D(lambda)]]``.

    Coefficient j carries A_j in the top-left and D_j in the bottom-right;
    the constant blocks -B and C sit in coefficient 0 only.  The degree is
    max(m, k).
    """
    n, r = R.n, R.r
    deg = max(R.m, R.k)
    coeffs = []
    for j in range(deg + 1):
        S = np.zeros((n + r, n + r), dtype=complex)
        S[:n, :n] = R.A.coefficient(j)
        S[n:, n:] = R.D.coefficient(j)
        if j == 0:
            S[:n, n:] = -R.B
            S[n:, :n] = R.C
        coeffs.append(S)
    return MatrixPolynomial(tuple(coeffs))


def numerical_rank(M: np.ndarray, rtol: float, floor: float = 1.0) -> int:
    """Number of singular values of the matrix ``M`` above ``rtol * max(sigma_max, floor)``.

    The rank rule of the basis check and the Z-rank.  Every near-singularity
    decision about A(lambda) (the sampler and the pole guard) and the eigensolver's
    regularity test read the probe estimate of :func:`probe_solve` instead."""
    sv = np.linalg.svd(M, compute_uv=False)
    return int((sv > rtol * max(sv[0], floor)).sum())


#: Stored entries of the unit-modulus probe column ``g_j = exp(i j^2)``: a chirp,
#: not a power vector ``(z^j)``, which pencil eigenvectors are built from.
PROBE = np.exp(1j * np.arange(1024.0) ** 2)


def probe_solve(K: np.ndarray, rhs: np.ndarray, norm_floor: float = 0.0):
    """``(K^{-1} rhs, rcond)`` from one ``np.linalg.solve(K, [rhs | g])``.

    ``g`` is the probe column (``PROBE``) and ``rcond = ||g||_1 / (max(||K||_1,
    norm_floor) ||K^{-1} g||_1)``.  Since ``||K^{-1} g||_1 / ||g||_1`` is a lower
    bound on ``||K^{-1}||_1`` (Dixon, SINUM 20, 1983), rcond bounds the 1-norm
    reciprocal condition number from above.  K may be a stack of matrices
    (one rhs for all); rcond is then the smallest over the stack.  It is 0
    when the solve overflows, and ``(None, 0.0)`` is returned at an exactly
    zero pivot.  A 1-D ``rhs`` gives 1-D solutions.
    """
    n, stacked = K.shape[-1], K.ndim > 2
    g = PROBE[:n] if n <= PROBE.size else np.exp(1j * np.arange(float(n)) ** 2)
    cols = np.concatenate([rhs[:, None] if rhs.ndim == 1 else rhs, g[:, None]], axis=1)
    try:
        x = np.linalg.solve(K, cols)
    except np.linalg.LinAlgError:
        return None, 0.0
    norm, probe = np.abs(K).sum(axis=-2).max(axis=-1), np.abs(x[..., -1]).sum(axis=-1)
    denom = (np.maximum(norm, norm_floor) * probe).max() if stacked else \
        max(float(norm), norm_floor) * float(probe)
    rcond = n / denom if denom > 0.0 else 0.0  # denom is NaN or 0 only after an overflow
    return (x[..., 0] if rhs.ndim == 1 else x[..., :-1]), rcond


def solve_state(R: Realization, lam, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A(lambda) x = rhs`` from one :func:`probe_solve`, after the pole guard.

    PoleError when the probe's reciprocal condition estimate (0 at an exactly zero pivot),
    with ``||A||_1`` floored at the data's own scale ``max_j |A_j|``, is at most
    ``POLE_RTOL``.  An A(lambda) that overflows is a pole too, without a floating-point
    warning.  ``lam`` may be a 1-D array of points: the solutions then stack along a
    first axis, and PoleError is raised when any point is a pole."""
    with np.errstate(all="ignore"):
        x, rcond = probe_solve(eval_polymat(R.A, lam), rhs, R.A.scale)
    if rcond <= POLE_RTOL:
        raise PoleError(f"A(lambda) is singular to tolerance at lambda={lam}")
    return x


def solve_state_left(R: Realization, lam: complex, lhs: np.ndarray) -> np.ndarray:
    """Solve ``x A(lambda) = lhs`` (returns ``lhs A(lambda)^{-1}``): the transpose of
    :func:`solve_state` of :func:`transpose_realization`, whose state matrix is A^T: the pole
    guard reads A^T's probe estimate, which near ``POLE_RTOL`` may disagree with A's."""
    return solve_state(transpose_realization(R), lam, lhs.T).T


def _kron_col(v: np.ndarray, K: np.ndarray) -> np.ndarray:
    """``v kron K``, the blocks v_i K stacked; a 2-D v or a 3-D K is a stack of points."""
    out = v[..., None, None] * (K[:, None] if K.ndim > 2 else K)
    return out.reshape(out.shape[:-3] + (-1, K.shape[-1]))


def _assemble_lift(R: Realization, lam, F: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The lift ``[Lambda_m kron F ; Lambda_k kron col]``, Lambda_d the powers of
    :func:`lambda_vector`; :func:`_lift` gives it for ``F = A(lambda)^{-1} B col``."""
    powers = lambda_vector(max(R.m, R.k), lam)
    return np.concatenate([_kron_col(powers[..., -R.m:], F), _kron_col(powers[..., -R.k:], col)], -2)


def _lift(R: Realization, lam, col: np.ndarray):
    """The lift of a matrix ``col`` of r rows (DimensionError otherwise) and ``G(lambda) col
    = C F + D(lambda) col``: ``F = A(lambda)^{-1} B col`` from one :func:`solve_state`, then
    :func:`_assemble_lift`.  A 1-D array of points stacks both along a first axis.  A left
    null vector y of G is the conjugate of a right one of G^T, so the left lift of y is the
    conjugated lift of conj(y) on the transpose."""
    if col.shape[0] != R.r:
        raise DimensionError(f"vector length must be {R.r}, got {col.shape[0]}")
    F = solve_state(R, lam, R.B @ col)
    return _assemble_lift(R, lam, F, col), R.C @ F + eval_polymat(R.D, lam) @ col


def eval_transfer(R: Realization, lam) -> np.ndarray:
    """Evaluate ``G(lambda) = C A(lambda)^{-1} B + D(lambda)``.

    One LU solve with A(lambda) serves the solve, never an explicit
    inverse.  PoleError signals that lambda is numerically a pole of G: an
    exactly zero pivot, or a probe estimate of the 1-norm reciprocal
    condition of A(lambda) at most ``POLE_RTOL``, with ``||A(lambda)||_1``
    floored at ``max_j |A_j|`` (see :func:`probe_solve`).  p points: (p, r, r).
    """
    return R.C @ solve_state(R, lam, R.B) + eval_polymat(R.D, lam)


def transpose_realization(R: Realization) -> Realization:
    """A realization of ``G(lambda)^T``, sign-normalized for pencil duality.

    ``G^T = D^T + (-B^T) (A^T)^{-1} (-C^T)``; negating both constant blocks
    keeps the off-diagonal sign convention of the first-companion ansatz
    spaces intact under transposition, so that transposes of second-space
    members land exactly in the first space of this realization.  Built once
    per realization and kept on it (:func:`_kept`): every left-side solve, lift
    and recovery runs on it.
    """
    return _kept(R, "_transpose", _transposed)


def _transposed(R: Realization) -> Realization:
    return Realization(A=R.A.transpose(), B=-R.C.T, C=-R.B.T, D=R.D.transpose())


def _structured(R: Realization, op) -> bool:  # op(A_i) = A_i, op(D_i) = D_i and op(C) = B
    return max_entry(*(c - op(c) for c in R.A.coeffs + R.D.coeffs),
                     op(R.C) - R.B) <= 1e-10 * R.scale


def is_symmetric_realization(R: Realization) -> bool:
    """True when all A_i, D_i are symmetric and C^T = B, to ``1e-10 R.scale``; kept on R."""
    return _kept(R, "_symmetric", lambda R: _structured(R, np.transpose))


def is_hermitian_realization(R: Realization) -> bool:
    """True when all A_i, D_i are Hermitian and C* = B, to ``1e-10 R.scale``; kept on R."""
    return _kept(R, "_hermitian", lambda R: _structured(R, lambda M: M.conj().T))
