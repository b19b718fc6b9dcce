"""Non-monomial polynomial bases for the ansatz spaces.

A degree-graded basis ``phi_0, ..., phi_{d-1}`` of the polynomials of
degree below d is encoded by the nonsingular matrix ``Phi`` with
``Phi Lambda(lambda) = [phi_0(lambda), ..., phi_{d-1}(lambda)]^T`` for the
descending-power stack Lambda.  Right-multiplying a first-space pencil by
``blockdiag(Phi^{-1} kron I_n, Psi^{-1} kron I_r)`` turns the monomial
ansatz identity into its basis analogue; the map is a strict equivalence,
so spectra are preserved.  The ordering permutation between the
phi-ordering (phi_0 first) and the descending Lambda is absorbed into Phi
itself; there is no separate reordering step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Realization, numerical_rank
from .errors import DimensionError, SingularBasis
from .spaces import SPACE_L1G, AnsatzPencil, build_pencil_L1, residual_ansatz

__all__ = [
    "BasisSpec",
    "phi_matrix",
    "build_L1_tilde",
    "tilde_to_monomial",
    "residual_tilde",
]

_KINDS = ("monomial", "chebyshev_T", "newton", "custom")


@dataclass(frozen=True)
class BasisSpec:
    """Specification of a degree-graded scalar polynomial basis.

    ``kind`` is one of ``monomial``, ``chebyshev_T``, ``newton`` or
    ``custom``.  Newton bases need exactly d - 1 nodes; a custom basis
    supplies its coefficient rows (one polynomial per row, against
    descending powers) directly.
    """

    kind: str
    d: int
    nodes: tuple = ()
    rows: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DimensionError(f"unknown basis kind {self.kind!r}")
        if self.d < 1:
            raise DimensionError("basis needs d >= 1")
        object.__setattr__(self, "nodes", tuple(complex(x) for x in self.nodes))
        if self.kind == "newton" and len(self.nodes) != self.d - 1:
            raise DimensionError(
                f"newton basis of size {self.d} needs exactly {self.d - 1} nodes")
        if self.kind == "custom":
            rows = np.asarray(self.rows, dtype=complex)
            if rows.shape != (self.d, self.d):
                raise DimensionError(f"custom basis rows must be {self.d}x{self.d}")
            object.__setattr__(self, "rows", rows)


def phi_matrix(spec: BasisSpec) -> np.ndarray:
    """The matrix with ``Phi Lambda(lambda) = [phi_0, ..., phi_{d-1}]^T``.

    Row j holds the coefficients of phi_j against descending powers.  The
    result is checked for nonsingularity; duplicate Newton nodes are
    rejected up front as a specification error.
    """
    d = spec.d
    if spec.kind == "monomial":
        return np.eye(d)[::-1].astype(complex)
    if spec.kind == "newton":
        for i, a in enumerate(spec.nodes):
            for b in spec.nodes[i + 1:]:
                if abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)):
                    raise SingularBasis(f"duplicate newton nodes {a} and {b}")
    if spec.kind == "custom":
        Phi = np.array(spec.rows, dtype=complex)
    else:
        # loaded at the first call, so that importing the package does not load them
        from numpy.polynomial import chebyshev, polynomial

        # phi_j in ascending powers, reversed and zero-padded to descending ones
        asc = [chebyshev.cheb2poly(np.eye(j + 1)[j]) if spec.kind == "chebyshev_T"
               else polynomial.polyfromroots(spec.nodes[:j]) for j in range(d)]
        Phi = np.array([np.pad(c[::-1], (d - 1 - j, 0)) for j, c in enumerate(asc)], dtype=complex)
    if numerical_rank(Phi, 1e-12) < d:
        raise SingularBasis("basis matrix is singular to tolerance")
    return Phi


def _change_basis(P: AnsatzPencil, spec_A: BasisSpec, spec_D: BasisSpec,
                  to_monomial: bool) -> AnsatzPencil:
    """``P`` right-multiplied by ``blockdiag(T_A kron I_n, T_D kron I_r)``.

    T is the spec's Phi (basis form to monomial) or its inverse (monomial to
    basis form).  Each row of a partition's block columns, read as a stack of
    blocks, is multiplied by ``T^T``: one stacked product per partition, no
    N x N Kronecker matrix.
    """
    dims = P.dims
    if spec_A.d != dims.m or spec_D.d != dims.k:
        raise DimensionError("basis sizes must match the polynomial degrees (m, k)")
    N, t = dims.size, dims.top
    XY = np.stack([P.X, P.Y])
    for cols, spec, b in ((slice(0, t), spec_A, dims.n), (slice(t, N), spec_D, dims.r)):
        T = phi_matrix(spec) if to_monomial else np.linalg.inv(phi_matrix(spec))
        XY[..., cols] = (T.T @ XY[..., cols].reshape(2, N, spec.d, b)).reshape(2, N, -1)
    return AnsatzPencil(X=XY[0], Y=XY[1], dims=dims, space=P.space, v=P.v, w=P.w)


def build_L1_tilde(R: Realization, spec_A: BasisSpec, spec_D: BasisSpec,
                   v, w, W=None, W1=None) -> AnsatzPencil:
    """First-space pencil expressed against non-monomial bases.

    The monomial member for (v, w, W, W1) is right-multiplied by
    ``blockdiag(Phi^{-1} kron I_n, Psi^{-1} kron I_r)``, after which the
    ansatz identity holds with the basis stacks:
    ``T(lambda) [Lambda_phi kron A^{-1}B ; Lambda_psi kron I_r] =
    [0 ; w kron G(lambda)]``.
    """
    return _change_basis(build_pencil_L1(R, v, w, W, W1, space=SPACE_L1G), spec_A, spec_D,
                         to_monomial=False)


def tilde_to_monomial(P: AnsatzPencil, spec_A: BasisSpec, spec_D: BasisSpec) -> AnsatzPencil:
    """Map a basis-form pencil back to the monomial space.

    Right multiplication by ``blockdiag(Phi kron I_n, Psi kron I_r)``;
    inverse of :func:`build_L1_tilde`, and a linear isomorphism between
    the two spaces (strict equivalence, so spectra coincide).
    """
    return _change_basis(P, spec_A, spec_D, to_monomial=True)


def residual_tilde(P: AnsatzPencil, R: Realization, spec_A: BasisSpec,
                   spec_D: BasisSpec, lam_samples) -> float:
    """Max deviation of the basis-form ansatz identity over the samples.

    The identity with the basis stacks ``Phi Lambda_m`` and ``Psi Lambda_k``
    is, in exact arithmetic, the monomial identity of the pencil's monomial
    image, so this is the residual of :func:`tilde_to_monomial` of P.
    """
    return residual_ansatz(tilde_to_monomial(P, spec_A, spec_D), R, lam_samples)
