import warnings

import numpy as np
import pytest
from conftest import cgauss, random_realization
from oracles import copy_first_horner

from syspencils import (
    DimensionError,
    MatrixPolynomial,
    PoleError,
    Realization,
    build_C1,
    build_system_matrix,
    eval_polymat,
    eval_transfer,
    lambda_vector,
    padded_identity,
    transpose_realization,
)
from syspencils.core import probe_solve, solve_state, solve_state_left


def test_eval_polymat_constant():
    P = MatrixPolynomial((np.array([[2.0]]),))
    assert eval_polymat(P, 5.0) == np.array([[2.0]])


def test_eval_polymat_linear_and_quadratic():
    P = MatrixPolynomial.from_scalars(-2, 1)  # lambda - 2
    assert eval_polymat(P, 1.0)[0, 0] == -1.0
    Q = MatrixPolynomial.from_scalars(1, 0, 1)  # lambda^2 + 1
    assert abs(eval_polymat(Q, 1j)[0, 0]) < 1e-15


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_eval_polymat_is_the_copy_first_horner_bit_for_bit(degree):
    rng = np.random.default_rng(degree)
    P = MatrixPolynomial(tuple(cgauss(rng, 3, 2) for _ in range(degree + 1)))
    points = cgauss(rng, 4)
    for lam in (complex(points[0]), points[1], 0.5, points[:, None, None]):
        got, expected = eval_polymat(P, lam), copy_first_horner(P, lam)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    out = eval_polymat(P, points[0])
    assert out.flags.writeable  # a new array, never a frozen coefficient
    assert not any(np.shares_memory(out, c) for c in P.coeffs)


def _assert_scalar_calls(f, points):
    """``f`` at a 1-D array of points is the stack of its scalar calls, bit for bit."""
    got, expected = f(points), np.stack([f(z) for z in points])
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("degree", [0, 1, 3])
@pytest.mark.parametrize("p", [1, 2, 3])  # the coefficients are 3 x 2
def test_eval_polymat_at_points_is_the_scalar_calls(degree, p):
    rng = np.random.default_rng(10 * degree + p)
    P = MatrixPolynomial(tuple(cgauss(rng, 3, 2) for _ in range(degree + 1)))
    points = cgauss(rng, p)
    _assert_scalar_calls(lambda lam: eval_polymat(P, lam), points)
    _assert_scalar_calls(P, points)
    out = eval_polymat(P, points)
    assert out.flags.writeable and not any(np.shares_memory(out, c) for c in P.coeffs)


@pytest.mark.parametrize("p", [1, 2, 3, 10])  # r = 2, n = 3 and N = mn + kr = 10
def test_transfer_and_pencil_at_points_are_the_scalar_calls(p):
    R = random_realization(np.random.default_rng(p), 2, 3, 2, 2)
    points = cgauss(np.random.default_rng(100 + p), p)
    _assert_scalar_calls(lambda lam: eval_transfer(R, lam), points)
    _assert_scalar_calls(build_C1(R), points)


def test_probe_solve_exactly_singular_is_rcond_zero():
    K = np.array([[0.0, 1.0], [0.0, 2.0]], dtype=complex)  # an exactly zero pivot
    for stack in (K, np.stack([np.eye(2), K])):
        for rhs in (np.ones(2), np.ones((2, 3))):
            assert probe_solve(stack, rhs) == (None, 0.0)


def test_lambda_vector():
    assert np.array_equal(lambda_vector(1, 3.7 + 2j), np.array([1.0 + 0j]))
    assert np.array_equal(lambda_vector(3, 2.0), np.array([4.0, 2.0, 1.0]))
    assert np.array_equal(lambda_vector(2, 0.0), np.array([0.0, 1.0]))


def test_lambda_vector_trailing_one():
    rng = np.random.default_rng(0)
    for d in range(1, 9):
        lam = complex(cgauss(rng))
        assert lambda_vector(d, lam)[-1] == 1.0


def test_lambda_vector_of_an_array_of_points():
    rng = np.random.default_rng(2)
    lams = np.concatenate([[0.0, -1.5, 1j, 1e30], cgauss(rng, 20)])
    for d in range(1, 7):
        rows = lambda_vector(d, lams)
        assert rows.shape == (lams.size, d)
        for lam, row in zip(lams, rows):
            assert lambda_vector(d, lam).tobytes() == row.tobytes()


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
    # A(0) has an exactly zero column, so LU meets an exactly zero pivot
    A0 = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, -1.0], [0.0, 0.5, 4.0]], dtype=complex)
    for M in (A0, A0.T):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(M, np.eye(3))
    with pytest.raises(PoleError):
        _GUARDED[call](_at_zero(A0))


@pytest.mark.parametrize("call", sorted(_GUARDED))
@pytest.mark.parametrize("lam", [1e10, -1e10, 1e10j])
def test_overflowing_state_matrix_is_a_pole(call, lam):
    # A(lambda) = I + 1e300 lambda I overflows to +-inf entries at |lambda| = 1e10
    R = Realization(A=MatrixPolynomial((np.eye(2), 1e300 * np.eye(2))), B=np.ones((2, 1)),
                    C=np.ones((1, 2)), D=MatrixPolynomial.from_scalars(0, 1))
    guarded = {"solve_state": lambda: solve_state(R, lam, R.B),
               "solve_state_left": lambda: solve_state_left(R, lam, R.C),
               "eval_transfer": lambda: eval_transfer(R, lam)}[call]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError):
            guarded()


def test_state_solves_at_several_points():
    rng = np.random.default_rng(6)
    R = random_realization(rng, 1, 4, 1, 2)
    lams = cgauss(rng, 5)
    stacked = solve_state(R, lams, R.B)
    assert stacked.shape == (5, 4, 2)
    for lam, got in zip(lams, stacked):
        want = solve_state(R, lam, R.B)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    # one pole among the points makes the whole call a pole
    pole = np.linalg.eigvals(np.linalg.solve(-R.A.coeffs[1], R.A.coeffs[0]))
    with pytest.raises(PoleError):
        solve_state(R, np.append(lams, pole[0]), R.B)


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
    # ||A(0)|| is floored at the data's scale max_j |A_j| = 1 (A_1 = I): a tiny
    # but perfectly conditioned A(0) is a pole of these data
    with pytest.raises(PoleError):
        _GUARDED[call](_at_zero(1e-13 * np.eye(3, dtype=complex)))
    assert np.isfinite(_GUARDED[call](_at_zero(1e-11 * np.eye(3, dtype=complex)))).all()


@pytest.mark.parametrize("call", sorted(_GUARDED))
def test_pole_guard_floor_scales_with_the_data(call):
    # A(lambda) = 1e-13 (A_0 + lambda I) is as far from singular at 0 as A_0 + lambda I
    A0 = _with_singular_values(np.random.default_rng(9), np.array([1.0, 0.5, 0.2]))
    R = _at_zero(A0)
    tiny = Realization(A=MatrixPolynomial(tuple(1e-13 * c for c in R.A.coeffs)), B=R.B, C=R.C,
                       D=R.D)
    assert np.isfinite(_GUARDED[call](tiny)).all()


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


def test_the_package_republishes_each_modules_public_names():
    # one list per module: the package namespace is the union of the modules'
    # public names, each the same object, plus the submodules and __version__
    import types

    import syspencils
    from syspencils import basis, core, errors, shiftsum, spaces, spectra

    published = set()
    for module in (basis, core, errors, shiftsum, spaces, spectra):
        names = getattr(module, "__all__", None) or [
            name for name in vars(module) if not name.startswith("_")]
        for name in names:
            assert getattr(syspencils, name) is getattr(module, name), name
        published.update(names)
    others = {name for name, value in vars(syspencils).items() if not name.startswith("_")
              and not isinstance(value, types.ModuleType)} - published
    assert others == set()
    assert {"solve_state", "solve_state_left", "is_symmetric_realization",
            "is_hermitian_realization", "SPACES", "default_tol_res"} <= published
    assert isinstance(syspencils.io, types.ModuleType) and "io" not in published
    assert syspencils.__version__ == "0.1.0"


@pytest.mark.parametrize("coeffs, message", [
    ((), "at least one coefficient"),
    ((np.eye(2), np.ones((2, 3))), r"coefficient shapes disagree: expected \(2, 2\), got \(2, 3\)"),
    ((np.ones(2),), r"coefficients must be 2-D, got shape \(2,\)"),
    ((np.eye(2), np.ones(2)), r"coefficients must be 2-D, got shape \(2,\)"),
], ids=["none", "shapes-disagree", "1-D", "1-D-after-2-D"])
def test_matrix_polynomial_input_checks(coeffs, message):
    with pytest.raises(DimensionError, match=message):
        MatrixPolynomial(coeffs)


def test_lambda_vector_needs_a_positive_length():
    with pytest.raises(DimensionError, match=r"lambda_vector needs d >= 1"):
        lambda_vector(0, 0.5)


@pytest.mark.parametrize("field, change", [
    ("A", dict(A=MatrixPolynomial((np.ones((2, 3)), np.ones((2, 3)))))),
    ("D", dict(D=MatrixPolynomial((np.ones((1, 2)), np.ones((1, 2)))))),
    ("C", dict(C=np.ones((2, 1)))),
], ids=["A-not-square", "D-not-square", "C-shape"])
def test_realization_input_checks(field, change):
    # n = r = 1 apart from the changed field; each message names that field first
    parts = dict(A=MatrixPolynomial.from_scalars(-2, 1), B=np.ones((1, 1)),
                 C=np.ones((1, 1)), D=MatrixPolynomial.from_scalars(0, 1))
    with pytest.raises(DimensionError, match=rf"^{field}(\(lambda\))? must be "):
        Realization(**{**parts, **change})
