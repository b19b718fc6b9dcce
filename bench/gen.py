"""Seeded inputs for the benchmark: realizations and problem files.

Every coefficient is complex Gaussian, drawn here from numpy's PCG64
generator; the program under test never sees the seed, only the arrays
(in-process workloads) or the JSON problem files written below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Raw:
    """Raw realization data: A and D as ascending coefficient lists."""

    A: tuple
    B: np.ndarray
    C: np.ndarray
    D: tuple

    @property
    def dims(self):
        return len(self.A) - 1, self.B.shape[0], len(self.D) - 1, self.B.shape[1]


def cgauss(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


#: A leading coefficient A_m or D_k is redrawn while its smallest
#: singular value is below this share of max(1, largest).  A near-singular
#: one gives eigenvalues of 1e3 and beyond, which DL-type pencils resolve
#: only to about 1e-5 relative and the determinant oracle of `verify` can
#: drop, so `verify` would fail valid pencils on some seeds.
LEADING_RTOL = 1e-3


def _coeffs(rng, size: int, degree: int, shape):
    """degree + 1 shaped Gaussian coefficients; the leading one kept well away from singular."""
    coeffs = [shape(cgauss(rng, size, size)) for _ in range(degree + 1)]
    while True:
        sv = np.linalg.svd(coeffs[-1], compute_uv=False)
        if sv[-1] >= LEADING_RTOL * max(1.0, sv[0]):
            return tuple(coeffs)
        coeffs[-1] = shape(cgauss(rng, size, size))


def realization(rng, m: int, n: int, k: int, r: int, kind: str = "general") -> Raw:
    """Random realization of the given block sizes.

    ``kind`` is ``general``, ``sym`` (A_i, D_i symmetric, C = B^T) or
    ``herm`` (A_i, D_i Hermitian, C = B^*).
    """
    if kind == "general":
        A = _coeffs(rng, n, m, lambda M: M)
        D = _coeffs(rng, r, k, lambda M: M)
        return Raw(A, cgauss(rng, n, r), cgauss(rng, r, n), D)
    op = {"sym": lambda M: M.T, "herm": lambda M: M.conj().T}[kind]
    A = _coeffs(rng, n, m, lambda M: (M + op(M)) / 2)
    D = _coeffs(rng, r, k, lambda M: (M + op(M)) / 2)
    B = cgauss(rng, n, r)
    return Raw(A, B, op(B).copy(), D)


def zero_leading(raw: Raw) -> Raw:
    """The same realization with A_m set to zero (degree kept structurally)."""
    return Raw(raw.A[:-1] + (np.zeros_like(raw.A[-1]),), raw.B, raw.C, raw.D)


def encode_matrix(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def problem_dict(raw: Raw) -> dict:
    return {
        "format": 1,
        "realization": {
            "A": [encode_matrix(M) for M in raw.A],
            "B": encode_matrix(raw.B),
            "C": encode_matrix(raw.C),
            "D": [encode_matrix(M) for M in raw.D],
        },
    }


def write_problem(path, raw: Raw) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_dict(raw), fh)


def to_realization(raw: Raw):
    """The program's Realization object for in-process workloads."""
    from syspencils import MatrixPolynomial, Realization

    return Realization(A=MatrixPolynomial(raw.A), B=raw.B, C=raw.C,
                       D=MatrixPolynomial(raw.D))
