import numpy as np
import pytest
from conftest import cgauss, random_realization

from syspencils import (
    DimensionError,
    MatrixPolynomial,
    PoleError,
    Realization,
    build_system_matrix,
    eval_polymat,
    eval_transfer,
    lambda_vector,
    padded_identity,
    transpose_realization,
)
from syspencils.core import solve_state, solve_state_left


def test_eval_polymat_constant():
    P = MatrixPolynomial((np.array([[2.0]]),))
    assert eval_polymat(P, 5.0) == np.array([[2.0]])


def test_eval_polymat_linear_and_quadratic():
    P = MatrixPolynomial.from_scalars(-2, 1)  # lambda - 2
    assert eval_polymat(P, 1.0)[0, 0] == -1.0
    Q = MatrixPolynomial.from_scalars(1, 0, 1)  # lambda^2 + 1
    assert abs(eval_polymat(Q, 1j)[0, 0]) < 1e-15


def test_lambda_vector():
    assert np.array_equal(lambda_vector(1, 3.7 + 2j), np.array([1.0 + 0j]))
    assert np.array_equal(lambda_vector(3, 2.0), np.array([4.0, 2.0, 1.0]))
    assert np.array_equal(lambda_vector(2, 0.0), np.array([0.0, 1.0]))


def test_lambda_vector_trailing_one():
    rng = np.random.default_rng(0)
    for d in range(1, 9):
        lam = complex(cgauss(rng))
        assert lambda_vector(d, lam)[-1] == 1.0


def test_padded_identity():
    assert np.array_equal(padded_identity(2, 2), np.eye(2))
    assert np.array_equal(padded_identity(1, 3), np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(DimensionError):
        padded_identity(3, 2)


def test_system_matrix_r1(r1):
    S = build_system_matrix(r1)
    assert S.degree == 1
    assert np.allclose(S.coeffs[0], np.array([[-2, -1], [1, 0]]))
    assert np.allclose(S.coeffs[1], np.eye(2))


def test_system_matrix_decoupled():
    rng = np.random.default_rng(1)
    R = random_realization(rng, 2, 2, 2, 2)
    R0 = Realization(A=R.A, B=np.zeros((2, 2)), C=np.zeros((2, 2)), D=R.D)
    S = build_system_matrix(R0)
    for j, c in enumerate(S.coeffs):
        assert np.allclose(c[:2, 2:], 0) and np.allclose(c[2:, :2], 0)
        assert np.allclose(c[:2, :2], R.A.coefficient(j))
        assert np.allclose(c[2:, 2:], R.D.coefficient(j))


def test_system_matrix_r2(r2):
    S = build_system_matrix(r2)
    assert S.degree == 2
    assert np.allclose(S.coeffs[0], np.array([[1, -1], [1, 0]]))
    assert np.allclose(S.coeffs[1], np.array([[0, 0], [0, 1]]))
    assert np.allclose(S.coeffs[2], np.array([[1, 0], [0, 0]]))


def test_system_matrix_linear_in_data():
    rng = np.random.default_rng(2)
    Ra = random_realization(rng, 2, 2, 1, 2)
    Rb = Realization(A=Ra.A, B=2 * Ra.B, C=Ra.C, D=Ra.D)
    Sa, Sb = build_system_matrix(Ra), build_system_matrix(Rb)
    assert np.allclose(Sb.coeffs[0][:2, 2:], 2 * Sa.coeffs[0][:2, 2:])
    scaled = MatrixPolynomial(tuple(
        (3.0 * c if j == 1 else c) for j, c in enumerate(Ra.A.coeffs)))
    Sc = build_system_matrix(Realization(A=scaled, B=Ra.B, C=Ra.C, D=Ra.D))
    assert np.allclose(Sc.coeffs[1][:2, :2], 3 * Sa.coeffs[1][:2, :2])
    assert np.allclose(Sc.coeffs[0], Sa.coeffs[0])


def test_eval_transfer_r1(r1):
    assert abs(eval_transfer(r1, 1.0)[0, 0]) < 1e-15
    assert abs(eval_transfer(r1, 0.0)[0, 0] + 0.5) < 1e-15
    with pytest.raises(PoleError):
        eval_transfer(r1, 2.0)


def _at_zero(A0, seed=0):
    """A realization with r = 2 whose A(0) is ``A0`` (A(lambda) = A0 + lambda I)."""
    rng = np.random.default_rng(seed)
    n = A0.shape[0]
    return Realization(A=MatrixPolynomial((A0, np.eye(n))), B=cgauss(rng, n, 2),
                       C=cgauss(rng, 2, n), D=MatrixPolynomial((cgauss(rng, 2, 2), np.eye(2))))


_GUARDED = {
    "solve_state": lambda R: solve_state(R, 0.0, R.B),
    "solve_state_left": lambda R: solve_state_left(R, 0.0, R.C),
    "eval_transfer": lambda R: eval_transfer(R, 0.0),
}


@pytest.mark.parametrize("call", sorted(_GUARDED))
def test_exactly_singular_state_is_a_pole(call):
    from scipy.linalg import lapack

    # A(0) has an exactly zero column, so LU meets an exactly zero pivot
    A0 = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, -1.0], [0.0, 0.5, 4.0]], dtype=complex)
    assert lapack.zgetrf(A0)[2] > 0 and lapack.zgetrf(A0.T)[2] > 0
    with pytest.raises(PoleError):
        _GUARDED[call](_at_zero(A0))


def _with_singular_values(rng, sv):
    n = len(sv)
    U = np.linalg.qr(cgauss(rng, n, n))[0]
    V = np.linalg.qr(cgauss(rng, n, n))[0]
    return U @ np.diag(sv) @ V.conj().T


@pytest.mark.parametrize("call", sorted(_GUARDED))
@pytest.mark.parametrize("n", [1, 5, 40])
def test_pole_guard_threshold(call, n):
    # sigma_max = 1, so the floor at 1 plays no part
    rng = np.random.default_rng(n)
    for ratio, pole in ((1e-14, True), (1e-9, False)):
        sv = np.array([ratio]) if n == 1 else np.logspace(0, np.log10(ratio), n)
        R = _at_zero(_with_singular_values(rng, sv), seed=n)
        if pole:
            with pytest.raises(PoleError):
                _GUARDED[call](R)
        else:
            assert np.isfinite(_GUARDED[call](R)).all()


@pytest.mark.parametrize("call", sorted(_GUARDED))
def test_pole_guard_norm_floor(call):
    # ||A(0)|| is floored at 1: a tiny but perfectly conditioned A(0) is a pole
    with pytest.raises(PoleError):
        _GUARDED[call](_at_zero(1e-13 * np.eye(3, dtype=complex)))
    assert np.isfinite(_GUARDED[call](_at_zero(1e-11 * np.eye(3, dtype=complex)))).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lam", [complex("inf"), complex("nan")])
def test_non_finite_lambda_is_a_pole(r1, lam):
    # A(lambda) is NaN there and so is LAPACK's condition estimate
    with pytest.raises(PoleError):
        eval_transfer(r1, lam)


@pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 4)])
def test_state_solves_match_dense_solves(shape):
    rng = np.random.default_rng(5)
    R = random_realization(rng, 2, 3, 1, 2)
    lam = complex(cgauss(rng))
    A = eval_polymat(R.A, lam)
    b = cgauss(rng, *shape)
    for got, want in ((solve_state(R, lam, b), np.linalg.solve(A, b)),
                      (solve_state_left(R, lam, b.T), np.linalg.solve(A.T, b).T)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_transfer_is_schur_complement():
    rng = np.random.default_rng(3)
    for _ in range(5):
        R = random_realization(rng, 2, 3, 2, 2)
        lam = complex(cgauss(rng))
        S = eval_polymat(build_system_matrix(R), lam)
        n = R.n
        schur = S[n:, n:] - S[n:, :n] @ np.linalg.solve(S[:n, :n], S[:n, n:])
        G = eval_transfer(R, lam)
        assert np.allclose(G, schur, rtol=1e-12, atol=1e-12 * np.abs(G).max())


def test_structural_degree_keeps_trailing_zeros():
    A = MatrixPolynomial((np.array([[1.0]]), np.array([[0.0]])))
    assert A.degree == 1
    R = Realization(A=A, B=np.array([[1.0]]), C=np.array([[1.0]]),
                    D=MatrixPolynomial.from_scalars(0, 1))
    assert R.m == 1


def test_realization_shape_validation():
    A = MatrixPolynomial.from_scalars(1, 1)
    D = MatrixPolynomial.from_scalars(0, 1)
    with pytest.raises(DimensionError):
        Realization(A=A, B=np.ones((2, 1)), C=np.ones((1, 1)), D=D)
    with pytest.raises(DimensionError):
        Realization(A=MatrixPolynomial((np.array([[1.0]]),)), B=np.ones((1, 1)),
                    C=np.ones((1, 1)), D=D)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["A", "B", "C", "D"])
def test_realization_rejects_non_finite(name, bad):
    data = dict(A=MatrixPolynomial.from_scalars(1, 1), B=np.ones((1, 1)),
                C=np.ones((1, 1)), D=MatrixPolynomial.from_scalars(0, 1))
    if name in ("A", "D"):
        data[name] = MatrixPolynomial.from_scalars(1, bad)
    else:
        data[name] = np.array([[bad]])
    with pytest.raises(ValueError, match=f"Realization.{name} "):
        Realization(**data)


def test_values_are_immutable():
    P = MatrixPolynomial.from_scalars(1, 2)
    with pytest.raises(ValueError):
        P.coeffs[0][0, 0] = 9.0
    R = Realization(A=P, B=np.array([[1.0]]), C=np.array([[1.0]]),
                    D=MatrixPolynomial.from_scalars(0, 1))
    with pytest.raises(ValueError):
        R.B[0, 0] = 9.0


def test_transpose_realization_realizes_transpose():
    rng = np.random.default_rng(4)
    R = random_realization(rng, 2, 3, 2, 2)
    Rt = transpose_realization(R)
    for lam in (0.3 + 0.9j, -1.2, 0.5j):
        assert np.allclose(eval_transfer(Rt, lam), eval_transfer(R, lam).T, atol=1e-12)
