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
    "realization_scale",
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


def _freeze(a) -> np.ndarray:
    """Return a read-only complex ndarray copy of ``a``."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


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
        rows, cols = frozen[0].shape if frozen[0].ndim == 2 else (None, None)
        for c in frozen:
            if c.ndim != 2 or c.shape != (rows, cols):
                raise DimensionError(
                    f"coefficient shapes disagree: expected {(rows, cols)}, got {c.shape}"
                )
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

    def __call__(self, lam: complex) -> np.ndarray:
        return eval_polymat(self, lam)

    def transpose(self) -> "MatrixPolynomial":
        return MatrixPolynomial(tuple(c.T for c in self.coeffs))

    def max_norm(self) -> float:
        return max(float(np.max(np.abs(c))) for c in self.coeffs)


def eval_polymat(P: MatrixPolynomial, lam: complex) -> np.ndarray:
    """Evaluate ``P(lambda)`` by Horner's scheme."""
    acc = np.array(P.coeffs[-1], dtype=complex)
    for c in reversed(P.coeffs[:-1]):
        acc = acc * lam + c
    return acc


def lambda_vector(d: int, lam: complex) -> np.ndarray:
    """Column ``[lambda^{d-1}, ..., lambda, 1]`` of descending powers.

    The trailing entry is always 1; this ordering matches every ansatz
    identity in the package.
    """
    if d < 1:
        raise DimensionError("lambda_vector needs d >= 1")
    return np.array([lam ** p for p in range(d - 1, -1, -1)], dtype=complex)


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
    system matrix S(lambda) is singular.
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

    @property
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
    """Number of singular values of ``M`` above ``rtol * max(sigma_max, floor)``.

    The rank rule of the sampler, the regularity probe, the basis check and
    the Z-rank; the pole guard reads a condition estimate (``_guarded_solve``)."""
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(sv > rtol * max(sv[0], floor)))


def _guarded_solve(R: Realization, lam: complex, rhs: np.ndarray, transpose: bool = False):
    """``A(lambda)^{-1} rhs`` (``A(lambda)^{-T} rhs`` with ``transpose``) from one LU
    factorization, after the pole guard: PoleError at an exactly zero pivot or
    when LAPACK's 1-norm reciprocal condition estimate, the norm floored at 1,
    is at most ``POLE_RTOL``.  scipy is imported here, at the first call."""
    from scipy.linalg import lapack

    M = eval_polymat(R.A, lam)
    M = M.T if transpose else M
    lu, piv, info = lapack.zgetrf(M)
    rcond = lapack.zgecon(lu, max(np.linalg.norm(M, 1), 1.0))[0] if info == 0 else 0.0
    if not rcond > POLE_RTOL:  # a NaN estimate counts as singular
        raise PoleError(f"A(lambda) is singular to tolerance at lambda={lam}")
    return lapack.zgetrs(lu, piv, rhs)[0]


def solve_state(R: Realization, lam: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A(lambda) x = rhs``; raises PoleError near a pole."""
    return _guarded_solve(R, lam, rhs)


def solve_state_left(R: Realization, lam: complex, lhs: np.ndarray) -> np.ndarray:
    """Solve ``x A(lambda) = lhs`` (returns ``lhs A(lambda)^{-1}``)."""
    return _guarded_solve(R, lam, lhs.T, transpose=True).T


def eval_transfer(R: Realization, lam: complex) -> np.ndarray:
    """Evaluate ``G(lambda) = C A(lambda)^{-1} B + D(lambda)``.

    One LU factorization of A(lambda) serves the solve, never an explicit
    inverse.  PoleError signals that lambda is numerically a pole of G: an
    exactly zero pivot, or a 1-norm reciprocal condition estimate of
    A(lambda) at most ``POLE_RTOL``, with ``||A(lambda)||_1`` floored at 1.
    """
    return R.C @ solve_state(R, lam, R.B) + eval_polymat(R.D, lam)


def transpose_realization(R: Realization) -> Realization:
    """A realization of ``G(lambda)^T``, sign-normalized for pencil duality.

    ``G^T = D^T + (-B^T) (A^T)^{-1} (-C^T)``; negating both constant blocks
    keeps the off-diagonal sign convention of the first-companion ansatz
    spaces intact under transposition, so that transposes of second-space
    members land exactly in the first space of this realization.
    """
    return Realization(A=R.A.transpose(), B=-R.C.T, C=-R.B.T, D=R.D.transpose())


def realization_scale(R: Realization) -> float:
    """Max-norm scale of the realization data (used by tolerance defaults)."""
    return max(
        R.A.max_norm(),
        R.D.max_norm(),
        float(np.max(np.abs(R.B))) if R.B.size else 0.0,
        float(np.max(np.abs(R.C))) if R.C.size else 0.0,
    )


def _is_structured(R: Realization, conj: bool) -> bool:
    """(Conjugate) symmetry of R in max norm, to ``1e-10 max(1, scale of R)``."""
    op = (lambda M: M.conj().T) if conj else (lambda M: M.T)
    dev = 0.0
    for c in R.A.coeffs + R.D.coeffs:
        dev = max(dev, float(np.max(np.abs(c - op(c)))))
    dev = max(dev, float(np.max(np.abs(op(R.C) - R.B))))
    return dev <= 1e-10 * max(1.0, realization_scale(R))


def is_symmetric_realization(R: Realization) -> bool:
    """True when all A_i, D_i are symmetric and C^T = B, to tolerance."""
    return _is_structured(R, conj=False)


def is_hermitian_realization(R: Realization) -> bool:
    """True when all A_i, D_i are Hermitian and C* = B, to tolerance."""
    return _is_structured(R, conj=True)
