import numpy as np
import pytest

from syspencils import MatrixPolynomial, Realization, sample_space


def cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_realization(rng, m, n, k, r):
    A = MatrixPolynomial(tuple(cgauss(rng, n, n) for _ in range(m + 1)))
    D = MatrixPolynomial(tuple(cgauss(rng, r, r) for _ in range(k + 1)))
    return Realization(A=A, B=cgauss(rng, n, r), C=cgauss(rng, r, n), D=D)


def random_symmetric_realization(rng, m, n, k, r):
    def sym(M):
        return (M + M.T) / 2

    A = MatrixPolynomial(tuple(sym(cgauss(rng, n, n)) for _ in range(m + 1)))
    D = MatrixPolynomial(tuple(sym(cgauss(rng, r, r)) for _ in range(k + 1)))
    B = cgauss(rng, n, r)
    return Realization(A=A, B=B, C=B.T.copy(), D=D)


def random_hermitian_realization(rng, m, n, k, r):
    def herm(M):
        return (M + M.conj().T) / 2

    A = MatrixPolynomial(tuple(herm(cgauss(rng, n, n)) for _ in range(m + 1)))
    D = MatrixPolynomial(tuple(herm(cgauss(rng, r, r)) for _ in range(k + 1)))
    B = cgauss(rng, n, r)
    return Realization(A=A, B=B, C=B.conj().T.copy(), D=D)


def same_data(R):
    """An equal but distinct realization: nothing computed for R is kept on it."""
    return Realization(A=MatrixPolynomial(R.A.coeffs), B=R.B, C=R.C,
                       D=MatrixPolynomial(R.D.coeffs))


def scaled_realization(R, c):
    """``c R``: the coefficients of A and D, B and C, all times c."""
    return Realization(A=MatrixPolynomial(tuple(c * a for a in R.A.coeffs)), B=c * R.B,
                       C=c * R.C, D=MatrixPolynomial(tuple(c * d for d in R.D.coeffs)))


def badly_scaled_l2g_member():
    """``(P, R)``: the sampled l2g member of (1, 2, 3, 3) data with per-matrix
    scales 10^U(-4, 4), whose shift-and-invert eigenpairs fail the backward-error
    check, so that solve_pencil falls back to QZ."""
    rng = np.random.default_rng(128)

    def scaled(*shape):
        return cgauss(rng, *shape) * 10.0 ** rng.uniform(-4, 4)

    A = MatrixPolynomial(tuple(scaled(2, 2) for _ in range(2)))
    D = MatrixPolynomial(tuple(scaled(3, 3) for _ in range(4)))
    R = Realization(A=A, B=scaled(2, 3), C=scaled(3, 2), D=D)
    return sample_space(R, seed=128, space="l2g"), R


@pytest.fixture
def r1():
    # A = lambda - 2, B = C = 1, D = lambda; zeros {1, 1}
    return Realization(
        A=MatrixPolynomial.from_scalars(-2, 1),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        D=MatrixPolynomial.from_scalars(0, 1),
    )


@pytest.fixture
def r2():
    # A = lambda^2 + 1, B = C = 1, D = lambda; zeros = roots of lambda^3+lambda+1
    return Realization(
        A=MatrixPolynomial.from_scalars(1, 0, 1),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        D=MatrixPolynomial.from_scalars(0, 1),
    )
