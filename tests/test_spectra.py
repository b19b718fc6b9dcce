import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    badly_scaled_l2g_member,
    cgauss,
    random_hermitian_realization,
    random_realization,
    random_symmetric_realization,
    same_data,
    scaled_realization,
)
from oracles import (
    det_roots,
    eager_structural_residual,
    det_scalar_poly,
    greedy_match,
    nonpole_samples_per_point,
    qz_eigvals,
)

from syspencils import (
    AnsatzPencil,
    BlockDims,
    DegenerateVector,
    DimensionError,
    InterpolationError,
    MatrixPolynomial,
    PoleError,
    Realization,
    SingularSystem,
    ZeroAnsatz,
    build_C1,
    build_C2,
    build_DL,
    build_pencil_L1,
    build_symmetric,
    build_system_matrix,
    default_tol_res,
    eval_polymat,
    eval_transfer,
    f_map,
    g_map,
    lift_left,
    lift_right,
    match_multisets,
    membership,
    nonpole_samples,
    pencil_eigvals,
    recover_left,
    recover_right,
    residual_ansatz,
    sample_space,
    solve_pencil,
    system_zeros,
    transpose_realization,
    verify_linearization,
    z_rank,
)
from syspencils import core, spectra
from syspencils.cli import main
from syspencils.io import problem_to_dict, save_json, save_pencil


def test_det_scalar_poly_r1(r1):
    coeffs = det_scalar_poly(build_system_matrix(r1))
    assert np.allclose(coeffs, [1, -2, 1], atol=1e-12)


def test_det_scalar_poly_degree_zero_and_diag():
    assert np.allclose(det_scalar_poly(MatrixPolynomial((np.eye(2),))), [1])
    lam_diag = MatrixPolynomial((np.zeros((2, 2)), np.eye(2)))  # diag(lambda, lambda)
    assert np.allclose(det_scalar_poly(lam_diag), [0, 0, 1], atol=1e-12)


def test_system_zeros(r1, r2):
    _, worst = match_multisets(system_zeros(r1), [1.0, 1.0])
    assert worst < 1e-6
    _, worst = match_multisets(system_zeros(r2), np.roots([1, 0, 1, 1]))
    assert worst < 1e-8


@pytest.mark.parametrize("c", [1e-12, 1e12])
def test_system_zeros_do_not_depend_on_the_data_scale(c):
    # the companion's identity blocks are at the data's scale, a left factor
    # diag(I, sI, ...) that leaves the eigenvalues alone
    R = random_realization(np.random.default_rng(8), 2, 3, 3, 2)
    want, got = system_zeros(R), system_zeros(scaled_realization(R, c))
    assert got.size == want.size
    pairs, _ = match_multisets(got, want)
    assert all(abs(got[i] - want[j]) <= 1e-12 * abs(want[j]) for i, j, _ in pairs)


def test_system_zeros_decoupled():
    R = Realization(A=MatrixPolynomial.from_scalars(0, 1), B=np.zeros((1, 1)),
                    C=np.zeros((1, 1)), D=MatrixPolynomial.from_scalars(0, 1))
    _, worst = match_multisets(system_zeros(R), [0.0, 0.0])
    assert worst < 1e-6  # double root at the origin


def test_system_zeros_singular_system():
    D = MatrixPolynomial((np.ones((2, 2)) * 0.0, np.ones((2, 2))))  # rank-1 everywhere
    R = Realization(A=MatrixPolynomial.from_scalars(0, 1), B=np.zeros((1, 2)),
                    C=np.zeros((2, 1)), D=D)
    with pytest.raises(SingularSystem):
        system_zeros(R)


def test_system_zeros_match_determinant_roots():
    rng = np.random.default_rng(14)
    for dims in [(1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 3, 1), (3, 2, 2, 1), (2, 3, 1, 2)]:
        R = random_realization(rng, *dims)
        zeros = system_zeros(R)
        roots = det_roots(build_system_matrix(R))
        assert zeros.size == roots.size == R.dims.size
        _, worst = match_multisets(zeros, roots)
        assert worst < 1e-8, (dims, worst)


@pytest.mark.parametrize("dims", [(2, 30, 2, 5), (3, 40, 2, 10)])
def test_verify_passes_companions_and_dl_at_large_n(dims):
    # sizes where interpolating det S(lambda) loses zeros (N = 70) or reads
    # S(lambda) as singular (N = 140)
    R = random_realization(np.random.default_rng(70), *dims)
    for build in (build_C1, build_C2, build_DL):
        report = verify_linearization(build(R), R)
        assert report.passed, (build.__name__, report.reason)
        assert report.pencil_eigs.size == R.dims.size


def test_verify_keeps_a_huge_zero_of_a_tiny_leading_coefficient():
    # D_1 = -1.6e-10 puts one zero near -2e9
    R = Realization(A=MatrixPolynomial.from_scalars(0.7 - 0.2j, 1.3 + 0.4j),
                    B=np.array([[0.9 + 0.1j]]), C=np.array([[-0.5 + 0.8j]]),
                    D=MatrixPolynomial.from_scalars(0.3 + 0.6j, -1.6e-10))
    assert system_zeros(R).size == 2
    for build in (build_C1, build_C2, build_DL):
        report = verify_linearization(build(R), R)
        assert report.passed, (build.__name__, report.reason)


def test_verify_passes_a_regular_system_with_a_1e308_leading_coefficient():
    # det S = 1e308 lambda^2 - 2 lambda + 1: every unscaled sigma X + Y has a
    # condition number near 1e308, so a rank test there calls S singular, and
    # ||X||_F overflows unless the norm is rescaled
    R = Realization(A=MatrixPolynomial.from_scalars(-2, 1e308), B=np.array([[1.0]]),
                    C=np.array([[1.0]]), D=MatrixPolynomial.from_scalars(0, 1))
    roots = np.roots([1e308, -2, 1])  # 1e-308 +- 1e-154 i
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (build_C1, build_C2, build_DL):
            report = verify_linearization(build(R), R)
            assert report.passed, (build.__name__, report.reason)
            zeros = report.oracle_roots
            assert zeros.size == 2
            for z in zeros:
                assert np.min(np.abs(roots - z)) <= 1e-6 * abs(z), (build.__name__, zeros)
            assert 0.0 < min(report.eig_residuals)


def _scaled_realization(seed: int, e: float) -> Realization:
    """Random data of dims in 1..3 with per-matrix scales 10^U(-e, e)."""
    rng = np.random.default_rng(seed)
    m, n, k, r = (int(d) for d in rng.integers(1, 4, size=4))

    def scaled(*shape):
        return cgauss(rng, *shape) * 10.0 ** rng.uniform(-e, e)

    A = MatrixPolynomial(tuple(scaled(n, n) for _ in range(m + 1)))
    D = MatrixPolynomial(tuple(scaled(r, r) for _ in range(k + 1)))
    return Realization(A=A, B=scaled(n, r), C=scaled(r, n), D=D)


def test_system_zeros_retry_unscaled_shifts():
    import syspencils.spectra as spectra
    from syspencils.core import probe_solve

    # (3, 3, 1, 1) data at scales 10^U(-4, 4): no shift scaled by
    # ||Y||_F/||X||_F passes the condition test on the block companion, and an
    # SVD rank test at unscaled points calls it singular too
    R = _scaled_realization(40140, 4.0)
    assert R.dims == BlockDims(3, 3, 1, 1)
    S = build_system_matrix(R).coeffs
    X, Y = np.eye(12, dtype=complex), np.zeros((12, 12), dtype=complex)
    X[:4, :4], Y[:4], Y[4:, :-4] = S[3], np.hstack(S[2::-1]), -np.eye(8)
    rho = spectra._norm(Y) / spectra._norm(X)
    assert all(probe_solve(rho * s * X + Y, X)[1] <= 1e-8 for s in spectra.SHIFT_POINTS)
    zeros = system_zeros(R)
    assert zeros.size == 10
    assert _optimal_distance(zeros, qz_eigvals(X, Y)) < 1e-8
    assert verify_linearization(build_C1(R), R).passed


def test_solve_pencil_raises_on_singular_pencils():
    # the DL pencil of data with A_m = 0 is singular (criterion 6): no eigenvalues
    rng = np.random.default_rng(109)
    for _ in range(5):
        R = random_realization(rng, 2, 2, 2, 1)
        Rz = Realization(A=MatrixPolynomial(R.A.coeffs[:2] + (np.zeros((2, 2)),)),
                         B=R.B, C=R.C, D=R.D)
        P = build_DL(Rz)
        with pytest.raises(SingularSystem, match="singular"):
            solve_pencil(P.X, P.Y, left=False)
        with pytest.raises(SingularSystem, match="singular"):
            pencil_eigvals(P.X, P.Y)


def test_solve_pencil_examples(r1):
    P = build_C1(r1)
    eigs = solve_pencil(P.X, P.Y)
    assert np.allclose(np.sort_complex(eigs.eigenvalues), [1, 1], atol=1e-7)
    diag = solve_pencil(np.eye(2), np.diag([-1.0, -2.0]))
    assert np.allclose(np.sort_complex(diag.eigenvalues), [1, 2], atol=1e-12)
    none = solve_pencil(np.zeros((2, 2)), np.eye(2))
    assert none.eigenvalues.size == 0


def test_solve_pencil_eigenvector_conventions():
    rng = np.random.default_rng(0)
    X, Y = cgauss(rng, 5, 5), cgauss(rng, 5, 5)
    eigs = solve_pencil(X, Y)
    for i, lam in enumerate(eigs.eigenvalues):
        M = lam * X + Y
        assert np.linalg.norm(M @ eigs.right[:, i]) < 1e-10 * np.linalg.norm(M)
        assert np.linalg.norm(eigs.left[:, i].conj() @ M) < 1e-10 * np.linalg.norm(M)


@pytest.mark.parametrize("side", ["left", "right"])
def test_solve_pencil_one_side(side):
    rng = np.random.default_rng(0)
    X, Y = cgauss(rng, 5, 5), cgauss(rng, 5, 5)
    both = solve_pencil(X, Y)
    one = solve_pencil(X, Y, left=side == "left", right=side == "right")
    np.testing.assert_allclose(one.eigenvalues, both.eigenvalues, rtol=1e-13)
    skipped = "right" if side == "left" else "left"
    assert getattr(one, skipped) is None
    vecs = getattr(one, side)
    assert vecs.shape == (5, one.eigenvalues.size)
    for i, lam in enumerate(one.eigenvalues):
        M = lam * X + Y
        u = vecs[:, i]
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        res = u.conj() @ M if side == "left" else M @ u
        assert np.linalg.norm(res) < 1e-10 * np.linalg.norm(M)


def _optimal_distance(a, b):
    """Largest scale-aware distance under the optimal one-to-one assignment."""
    from scipy.optimize import linear_sum_assignment

    dist = np.abs(a[:, None] - b) / np.maximum(np.maximum(np.abs(a)[:, None], np.abs(b)), 1.0)
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max(initial=0.0))


@pytest.mark.parametrize("n", [1, 3, 8, 40])
@pytest.mark.parametrize("infinite", [False, True])
def test_solve_pencil_without_vectors(n, infinite):
    rng = np.random.default_rng(n)
    X, Y = cgauss(rng, n, n), cgauss(rng, n, n)
    if infinite:
        X[:, 0] = 0.0  # an infinite eigenvalue
    expected = qz_eigvals(X, Y)
    assert expected.size == n - infinite
    eigs = solve_pencil(X, Y, left=False, right=False)
    assert eigs.left is None and eigs.right is None
    assert eigs.eigenvalues.size == expected.size
    assert _optimal_distance(eigs.eigenvalues, expected) < 1e-12
    assert np.array_equal(pencil_eigvals(X, Y).view(float), eigs.eigenvalues.view(float))


def test_solve_pencil_takes_the_norm_pair_once(monkeypatch):
    import syspencils.spectra as spectra

    calls, norm = [], spectra._norm

    def counted(v):
        calls.append(v.shape)
        return norm(v)

    monkeypatch.setattr(spectra, "_norm", counted)
    P = build_C1(random_realization(np.random.default_rng(4), 2, 3, 2, 2))
    for kw in ({"left": False}, {}, {"right": False}, {"left": False, "right": False}):
        calls.clear()
        solve_pencil(P.X, P.Y, **kw)
        assert len(calls) == 2, kw  # ||X||_F and ||Y||_F, for the shift and both checks


def test_column_norms_equal_numpy_norm_bit_for_bit():
    import syspencils.spectra as spectra

    rng = np.random.default_rng(11)
    for n in range(1, 16):
        for scale in (1.0, 1e150, 1e-150):
            V = cgauss(rng, n, n) * scale
            V[:, n // 2] = 0.0
            got, expected = spectra._column_norms(V), np.linalg.norm(V, axis=0)
            assert got.tobytes() == expected.tobytes(), (n, scale)


def test_column_norms_rescale_only_columns_whose_squares_leave_the_float_range():
    import syspencils.spectra as spectra

    rng = np.random.default_rng(12)
    V = cgauss(rng, 6, 4)
    V[:, 1] *= 1e200  # its squares overflow
    V[:, 2] *= 1e-200  # its squares underflow
    V[:, 3] = 0.0
    want = np.array([np.linalg.norm(V[:, j] / s) * s for j, s in enumerate((1, 1e200, 1e-200, 1))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spectra._column_norms(V)
    assert got[0].tobytes() == np.linalg.norm(V[:, 0]).tobytes() and got[3] == 0.0
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("build", [build_C1, build_DL])
@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_backward_errors_at_extreme_data_scales(build, c):
    # the squared residual entries overflowed at 1e200 (backward errors inf, with a
    # RuntimeWarning) and underflowed at 1e-200 (exactly 0: the 10 N eps bound held
    # vacuously); rescaled, they read as at scale 1
    R = scaled_realization(random_realization(np.random.default_rng(0), 2, 2, 2, 1), c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_linearization(build(R), R)
    eta = np.array(report.eig_residuals)
    assert report.passed and eta.size == report.oracle_roots.size > 0
    assert ((0.0 < eta) & (eta <= 10 * R.dims.size * np.finfo(float).eps)).all()


def test_solve_pencil_falls_back_to_qz_on_a_large_backward_error():
    import syspencils.spectra as spectra

    P, R = badly_scaled_l2g_member()
    n = R.dims.size
    norms = spectra._norm(P.X), spectra._norm(P.Y)
    shifted = spectra._finite_pairs(P.X, P.Y, norms,
                                    *spectra._shift_invert(P.X, P.Y, False, norms))
    assert shifted.backward_errors.max() > 10 * n * np.finfo(float).eps
    eigs = solve_pencil(P.X, P.Y, left=False)
    expected = qz_eigvals(P.X, P.Y, right=True)
    assert np.array_equal(eigs.eigenvalues.view(float), expected.view(float))
    assert verify_linearization(P, R).passed


@pytest.mark.parametrize("build, side", [(build_C1, "right"), (build_C2, "left")])
def test_solve_pencil_shift_invert_at_large_n(build, side):
    import syspencils.spectra as spectra

    R = random_realization(np.random.default_rng(70), 3, 40, 2, 10)
    P = build(R)
    n = R.dims.size
    left = side == "left"
    eigs = solve_pencil(P.X, P.Y, left=left, right=not left)
    norms = spectra._norm(P.X), spectra._norm(P.Y)
    shifted = spectra._finite_pairs(P.X, P.Y, norms,
                                    *spectra._shift_invert(P.X, P.Y, left, norms))
    assert np.array_equal(eigs.eigenvalues, shifted.eigenvalues)  # no QZ fallback
    assert eigs.eigenvalues.size == n
    assert eigs.backward_errors.max() <= 10 * n * np.finfo(float).eps
    assert _optimal_distance(eigs.eigenvalues, qz_eigvals(P.X, P.Y)) < 1e-10
    V = getattr(eigs, side)
    lam = eigs.eigenvalues
    if left:
        res = np.linalg.norm(lam[:, None] * (V.conj().T @ P.X) + V.conj().T @ P.Y, axis=1)
    else:
        res = np.linalg.norm(lam * (P.X @ V) + P.Y @ V, axis=0)
    scale = np.abs(lam) * np.linalg.norm(P.X) + np.linalg.norm(P.Y)
    assert np.max(res / scale) <= 10 * n * np.finfo(float).eps


def test_solve_pencil_falls_back_to_qz_on_poor_left_vectors():
    import syspencils.spectra as spectra

    # lambda X + Y = X (lambda I - Q J Q^{-1}), where J has the nearly defective
    # block [[1, 1], [1e-12, 1]]: the right eigenvector matrix has a condition
    # number near 1e6, so left vectors from its inverse lose about six digits
    rng = np.random.default_rng(3)
    n = 6
    J = np.diag(cgauss(rng, n))
    J[:2, :2] = [[1.0, 1.0], [1e-12, 1.0]]
    Q, X = cgauss(rng, n, n), cgauss(rng, n, n)
    Y = -X @ Q @ J @ np.linalg.inv(Q)
    bound = 10 * n * np.finfo(float).eps
    norms = spectra._norm(X), spectra._norm(Y)
    shifted = spectra._finite_pairs(X, Y, norms, *spectra._shift_invert(X, Y, True, norms))
    assert shifted.backward_errors.max() <= bound
    # the left vectors' backward errors, as right vectors of conj(lambda) X* + Y*
    assert spectra._backward_errors(X.conj().T, Y.conj().T, norms, shifted.eigenvalues.conj(),
                                    shifted.left).max() > bound
    # right vectors alone pass the check; asking for left ones sends the call to QZ
    right = solve_pencil(X, Y, left=False)
    assert np.array_equal(right.eigenvalues, shifted.eigenvalues)
    eigs = solve_pencil(X, Y, right=False)
    assert np.array_equal(eigs.eigenvalues.view(float),
                          qz_eigvals(X, Y, left=True).view(float))
    V, lam = eigs.left, eigs.eigenvalues
    res = np.linalg.norm(lam[:, None] * (V.conj().T @ X) + V.conj().T @ Y, axis=1)
    assert np.max(res / (np.abs(lam) * np.linalg.norm(X) + np.linalg.norm(Y))) < 1e-12


def test_verify_report_unchanged_by_right_only_qz(monkeypatch):
    import syspencils.spectra as spectra

    rng = np.random.default_rng(12)
    R = random_realization(rng, 2, 3, 2, 2)
    for P in (build_C1(R), build_DL(R)):
        one_sided = verify_linearization(P, R).to_dict()
        two_sided_qz = spectra.solve_pencil
        monkeypatch.setattr(spectra, "solve_pencil",
                            lambda X, Y, **_: two_sided_qz(X, Y))
        two_sided = verify_linearization(P, R).to_dict()
        monkeypatch.undo()
        assert one_sided["verdict"] == two_sided["verdict"] == "pass"
        for key in ("reason", "oracle_roots", "matching", "full_z_rank"):
            assert one_sided[key] == two_sided[key]
        for key in ("pencil_eigs", "max_eig_error", "ansatz_residual"):
            np.testing.assert_allclose(one_sided[key], two_sided[key], rtol=1e-13)
        np.testing.assert_allclose(one_sided["eig_residuals"], two_sided["eig_residuals"],
                                   rtol=0, atol=1e-15)


def test_eig_residuals_match_the_per_eigenvalue_loop():
    rng = np.random.default_rng(13)
    R = random_realization(rng, 3, 2, 2, 3)
    for P in (build_C1(R), build_C2(R), sample_space(R, seed=2, space="l1g")):
        report = verify_linearization(P, R)
        eigs = solve_pencil(P.X, P.Y, left=False)
        scale_x, scale_y = np.linalg.norm(P.X), np.linalg.norm(P.Y)
        loop = [np.linalg.norm((lam * P.X + P.Y) @ eigs.right[:, i])
                / max(abs(lam) * scale_x + scale_y, 1e-300)
                for i, lam in enumerate(eigs.eigenvalues)]
        assert len(report.eig_residuals) == len(loop) == R.dims.size
        np.testing.assert_allclose(report.eig_residuals, loop, rtol=0,
                                   atol=8 * np.finfo(float).eps)


def test_match_multisets():
    pairs, worst = match_multisets([1.0, 2.0], [2.0 + 1e-9, 1.0])
    assert worst < 1e-8
    with pytest.raises(Exception):
        match_multisets([1.0], [1.0, 2.0])
    # the greedy loop is the reference: same pairs, distances to a few ulps
    rng = np.random.default_rng(15)
    for n in (0, 1, 5, 30):
        a = cgauss(rng, n) * 10.0 ** rng.uniform(-3, 6, n)
        a[: n // 3] = a[-1:]  # duplicates
        b = rng.permutation(a) * (1 + 1e-9 * cgauss(rng, n))
        free, expected = list(range(n)), []
        for i in np.argsort(-np.abs(a), kind="stable"):
            dists = [abs(a[i] - b[j]) / max(1.0, abs(a[i]), abs(b[j])) for j in free]
            jloc = int(np.argmin(dists))
            expected.append((int(i), free.pop(jloc), dists[jloc]))
        pairs, worst = match_multisets(a, b)
        assert [p[:2] for p in pairs] == [e[:2] for e in expected]
        np.testing.assert_allclose([p[2] for p in pairs], [e[2] for e in expected],
                                   rtol=4 * np.finfo(float).eps, atol=0)
        assert worst == max((p[2] for p in pairs), default=0.0)


def test_match_multisets_equals_the_greedy_loop():
    # nearest columns taken in one pass up to the first repeat, the loop after it:
    # the same pairs, order and distances as the loop over every row
    rng = np.random.default_rng(44)
    cases = [([], []), ([1.0, 1.0], [1.0, 1.0])]  # the second repeats at once
    for n in (1, 2, 5, 12, 40):
        spread = cgauss(rng, n) * 10.0 ** rng.uniform(-2, 3, n)
        duplicates = np.where(np.arange(n) < n // 2, spread[0], spread)
        ties = rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)  # equal distances
        cluster = 1.0 + 1e-9 * cgauss(rng, n)
        for a in (spread, duplicates, ties, cluster):
            cases += [(a, rng.permutation(a)), (a, cgauss(rng, n)),
                      (a, rng.permutation(a) * (1.0 + 1e-10 * cgauss(rng, n)))]
    for a, b in cases:
        assert match_multisets(a, b) == greedy_match(a, b)


def test_z_rank_companion(r2):
    P = build_C1(r2)
    cert = z_rank(P, r2)
    assert cert.rank_L == 1 and cert.full_L
    assert cert.rank_K == 0 and cert.full_K  # k = 1: empty block counts as full
    assert np.allclose(cert.transform_M @ P.v, np.eye(2)[0], atol=1e-12)


def _kron_z_rank(Ytl, M, blk):
    """Free-block rank from the explicit ``(M kron I_blk) Ytl`` product."""
    d = M.shape[0]
    if d == 1:
        return 0
    Z = (np.kron(M, np.eye(blk)) @ Ytl)[blk:, : (d - 1) * blk]
    sv = np.linalg.svd(Z, compute_uv=False)
    return int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))


def _z_rank_member(kind):
    rng = np.random.default_rng(11)
    R = random_realization(rng, 3, 2, 2, 3)  # r > n and m != k
    if kind == "dl":  # v = e_m
        return build_DL(R), R
    if kind == "sym":  # w = -e_k
        Rs = random_symmetric_realization(rng, 3, 2, 2, 3)
        return build_symmetric(Rs), Rs
    if kind == "l2g":  # reduced through the transposed diagonal parts
        return sample_space(R, seed=3, space="l2g"), R
    v, w = cgauss(rng, 3), cgauss(rng, 2)
    v[0] = w[0] = 0.0
    return build_pencil_L1(R, v, w, cgauss(rng, 6, 4), cgauss(rng, 6, 3)), R


@pytest.mark.parametrize("kind", ["dl", "sym", "l2g", "first_entry_zero"])
def test_z_rank_reduces_ansatz_vectors_away_from_e1(kind):
    P, R = _z_rank_member(kind)
    cert = z_rank(P, R)
    assert np.allclose(cert.transform_M @ P.v, np.eye(R.m)[0], atol=1e-12)
    assert np.allclose(cert.transform_N @ P.w, np.eye(R.k)[0], atol=1e-12)
    t = R.dims.top
    Ytl, Ybr = P.Y[:t, :t], P.Y[t:, t:]
    if P.space == "l2g":
        Ytl, Ybr = Ytl.T, Ybr.T
    rank_L = _kron_z_rank(Ytl, cert.transform_M, R.n)
    rank_K = _kron_z_rank(Ybr, cert.transform_N, R.r)
    assert (cert.rank_L, cert.full_L) == (rank_L, rank_L == (R.m - 1) * R.n)
    assert (cert.rank_K, cert.full_K) == (rank_K, rank_K == (R.k - 1) * R.r)


def test_z_rank_zero_free_block(r2):
    # with W = 0 the reduced free block vanishes: rank 0, not full
    P = build_pencil_L1(r2, [1.0, 0.0], [1.0], np.zeros((2, 1)), None)
    cert = z_rank(P, r2)
    assert cert.rank_L == 0 and not cert.full_L


@pytest.mark.parametrize("dims", [(2, 1, 2, 1), (2, 3, 2, 2), (3, 2, 2, 3), (4, 2, 3, 1)])
def test_z_rank_zero_free_blocks_with_random_ansatz(dims):
    # Z = M[1:] (v kron [A_{m-1} ... A_0]) vanishes in exact arithmetic; its
    # rounding noise must not count as rank
    rng = np.random.default_rng(sum(dims))
    R = random_realization(rng, *dims)
    for _ in range(4):
        cert = z_rank(build_pencil_L1(R, cgauss(rng, R.m), cgauss(rng, R.k)), R)
        assert (cert.rank_L, cert.full_L, cert.rank_K, cert.full_K) == (0, False, 0, False)
    cert = z_rank(build_C1(R), R)
    assert cert.rank_L == (R.m - 1) * R.n and cert.full_L
    assert cert.rank_K == (R.k - 1) * R.r and cert.full_K


def test_z_rank_trivial_degrees(r1):
    cert = z_rank(build_C1(r1), r1)
    assert cert.full_L and cert.full_K and cert.rank_L == 0 and cert.rank_K == 0


def test_z_rank_zero_ansatz(r1):
    P = build_pencil_L1(r1, [0.0], [0.0])
    with pytest.raises(ZeroAnsatz):
        z_rank(P, r1)


def test_z_rank_invariant_under_reduction_choice():
    rng = np.random.default_rng(1)
    R = random_realization(rng, 3, 2, 2, 1)
    v, w = cgauss(rng, 3), cgauss(rng, 2)
    P = build_pencil_L1(R, v, w, cgauss(rng, 6, 4), cgauss(rng, 2, 1))
    cert = z_rank(P, R)
    n, m = R.n, R.m
    t = R.dims.top
    for trial in range(5):
        # any other nonsingular M' with M'v = e1 must give the same rank
        E = cgauss(rng, m, m) @ (np.eye(m) - np.outer(v, v.conj()) / np.vdot(v, v))
        Mp = cert.transform_M + E
        assert np.allclose(Mp @ v, np.eye(m)[0], atol=1e-10)
        assert abs(np.linalg.det(Mp)) > 1e-8
        Z = (np.kron(Mp, np.eye(n)) @ P.Y[:t, :t])[n:, : (m - 1) * n]
        sv = np.linalg.svd(Z, compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        assert rank == cert.rank_L


def test_z_rank_and_verify_second_space():
    rng = np.random.default_rng(10)
    R = random_realization(rng, 3, 2, 2, 2)
    P = build_C2(R)
    cert = z_rank(P, R)
    assert cert.full_L and cert.rank_L == (R.m - 1) * R.n
    assert cert.full_K and cert.rank_K == (R.k - 1) * R.r
    assert verify_linearization(P, R).passed
    assert verify_linearization(sample_space(R, seed=5, space="l2g"), R).passed


def test_nonpole_samples_rejects_a_singular_state_matrix():
    # A(lambda) = [[lambda, lambda], [lambda, lambda]] is singular everywhere
    ones = np.ones((2, 2))
    R = Realization(A=MatrixPolynomial((0 * ones, ones)), B=ones[:, :1], C=ones[:1],
                    D=MatrixPolynomial.from_scalars(0, 1))
    for sampler in (nonpole_samples, nonpole_samples_per_point):
        with pytest.raises(InterpolationError):
            sampler(R, 3)


def _kronecker_point(j: int) -> complex:
    return (0.4 + 1.2 * (j * 1.618033988749895 % 1)) * np.exp(2j * np.pi * (j * 2**0.5 % 1))


def test_probe_rule_keeps_the_points_of_the_former_svd_rule():
    # on these desk cases the probe estimate of A(lambda) keeps the points that the
    # former stacked-SVD rank test kept; A(lambda) = (lambda - p8)(lambda - p10)
    # vanishes at candidates 8 and 10 of seed 7
    rng = np.random.default_rng(21)
    p8, p10 = _kronecker_point(8), _kronecker_point(10)
    rejecting = Realization(A=MatrixPolynomial.from_scalars(p8 * p10, -(p8 + p10), 1),
                            B=np.ones((1, 1)), C=np.ones((1, 1)),
                            D=MatrixPolynomial.from_scalars(0, 1))
    cases = [(rejecting, 3, 7), (rejecting, 10, 7)]
    cases += [(random_realization(rng, *dims), count, seed)
              for dims, count, seed in (((1, 1, 1, 1), 10, 7), ((2, 3, 1, 2), 10, 0),
                                        ((3, 2, 2, 1), 20, 3), ((1, 4, 2, 2), 7, 11))]
    for R, count, seed in cases:
        expected = nonpole_samples_per_point(R, count, seed)
        assert nonpole_samples(R, count, seed).tobytes() == expected.tobytes()
    assert p8 not in nonpole_samples(rejecting, 3) and p10 not in nonpole_samples(rejecting, 3)
    assert nonpole_samples(rejecting, 0).size == 0


def test_nonpole_samples_reject_only_an_exactly_singular_candidate():
    # A(lambda) = lambda - p8 is exactly 0 at candidate 8 of seed 7: its zero
    # pivot rejects that candidate, and the next ten are kept
    p8 = _kronecker_point(8)
    R = Realization(A=MatrixPolynomial.from_scalars(-p8, 1), B=np.ones((1, 1)),
                    C=np.ones((1, 1)), D=MatrixPolynomial.from_scalars(0, 1))
    assert eval_polymat(R.A, p8)[0, 0] == 0.0
    expected = np.array([_kronecker_point(j) for j in range(9, 19)])
    assert nonpole_samples(R, 10).tobytes() == expected.tobytes()


def test_nonpole_samples_make_no_svd(monkeypatch):
    # the sampler reads the probe estimate of probe_solve, as the pole guard does
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    R = random_realization(np.random.default_rng(22), 2, 3, 2, 2)
    verify_linearization(build_C1(R), R)  # keeps verify's ten points on R
    assert nonpole_samples(R, 10).size == 10 and vars(R)["_samples"].size == 10
    assert calls == []


def test_verify_data_of_small_scale():
    # the sampler floors ||A(lambda)||_1 at max_j |A_j|: floored at 1, every
    # A(lambda) of these data read as singular and verify found no sample point
    R = Realization(A=MatrixPolynomial.from_scalars(-2e-4, 1e-4), B=np.ones((1, 1)),
                    C=np.ones((1, 1)), D=MatrixPolynomial.from_scalars(0, 1))
    assert nonpole_samples(R, 10).size == 10
    rng = np.random.default_rng(3)
    small = random_realization(rng, 1, 5, 2, 2)
    small = Realization(A=MatrixPolynomial(tuple(3e-4 * c for c in small.A.coeffs)),
                        B=small.B, C=small.C, D=small.D)
    for R in (R, small):
        for build in (build_C1, build_C2, build_DL):
            report = verify_linearization(build(R), R)
            assert report.passed, (build.__name__, report.reason)


_MEMBERS = {
    "c1": build_C1, "c2": build_C2, "dl": build_DL,
    **{space: (lambda R, space=space: sample_space(R, 3, space))
       for space in ("l1g", "l2g", "l1s", "sym", "herm")},
}


@pytest.mark.parametrize("kind, dims", [(kind, dims) for kind in _MEMBERS
                                        for dims in ((2, 1, 3, 2), (3, 2, 2, 1))
                                        if kind != "l1s" or dims[3] <= dims[1]])
def test_verify_does_not_depend_on_the_data_scale(kind, dims):
    # lambda cX + cY linearizes cG exactly when lambda X + Y linearizes G: every
    # floor and tolerance of verify is relative to the scale of the data and pencil
    rng = np.random.default_rng(sum(dims))
    make = {"sym": random_symmetric_realization, "herm": random_hermitian_realization}
    R = make.get(kind, random_realization)(rng, *dims)
    P = _MEMBERS[kind](R)
    E = np.eye(P.dims.size) + 0.3 * rng.standard_normal((P.dims.size, P.dims.size))
    assert verify_linearization(P, R).passed
    for c in (1e-20, 1e-12, 1e-8, 1e8, 1e12, 1e20):
        Rc = scaled_realization(R, c)
        for X, Y, member in ((P.X, P.Y, True), (E @ P.X, E @ P.Y, False)):
            cP = AnsatzPencil(X=c * X, Y=c * Y, dims=P.dims, space=P.space, v=P.v, w=P.w)
            report = verify_linearization(cP, Rc)
            if member:
                assert (report.verdict, report.reason) == ("pass", ""), (c, report.reason)
            else:
                assert report.reason.startswith("membership"), (c, report.reason)


@pytest.mark.parametrize("build", [build_C1, build_C2])
def test_companions_built_at_any_data_scale_verify_with_full_z_rank(build):
    # C1's identity free blocks sit at the data's scale (a power of two): with unit
    # blocks, verify called the companions of data at 1e8 and beyond, or at 1e-12
    # and below, singular, and their Z-rank read (False, False)
    for seed in range(3):
        R = random_realization(np.random.default_rng(seed), 2, 2, 2, 1)
        for c in (1e-20, 1e-16, 1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12, 1e16, 1e20):
            Rc = scaled_realization(R, c)
            report = verify_linearization(build(Rc), Rc)
            assert (report.verdict, report.reason) == ("pass", ""), (seed, c, report.reason)
            assert report.full_z_rank == (True, True), (seed, c)


def _scalar_realization(c, a_coeffs, b):
    """A = c a(lambda), B = C = b, D = b lambda, from ascending coefficients of a."""
    return Realization(A=MatrixPolynomial.from_scalars(*(c * x for x in a_coeffs)),
                       B=np.array([[b]]), C=np.array([[b]]),
                       D=MatrixPolynomial.from_scalars(0, b))


def test_verify_at_extreme_data_scales():
    # each was misjudged while floors and tolerances read the literal 1:
    # a non-member of tiny data passed membership (1e-8 absolute tolerance)
    R = _scalar_realization(1e-12, (-2, 1), 1e-12)
    P = build_C1(R)
    E = np.array([[1.0, 1.0], [0.0, 1.0]])
    bad = AnsatzPencil(X=E @ P.X, Y=E @ P.Y, dims=P.dims, space=P.space, v=P.v, w=P.w)
    assert verify_linearization(bad, R).reason.startswith("membership")
    # the reference of large data was called singular (unit identity blocks)
    R = _scalar_realization(1e10, (2, -3, 1), 1e10)
    assert verify_linearization(build_DL(R), R).passed
    # the pole guard floored ||A(lambda)|| at 1 and called every sample point a pole
    R = _scalar_realization(1e-13, (-2, 1), 1.0)
    assert verify_linearization(build_DL(R), R).passed


@pytest.mark.parametrize("v", [
    [0.0, 2.0, -1j], [-3.0, 0.5, 0.5], [1 + 2j, -0.3j, 4.0], [1.0, 0.0, 0.0], [1.0],
    [0.0, 0.0, 1e-200], [1e200 - 3e199j, 2e200, -7e199]])
def test_unit_mapping_sends_v_to_e1(v):
    from syspencils.spectra import _unit_mapping

    v = np.array(v, dtype=complex)
    scale = np.max(np.abs(v))
    M = _unit_mapping(v)
    assert np.isfinite(M).all()
    Mv = M @ v
    assert abs(Mv[0] - 1.0) <= 1e-14
    assert np.max(np.abs(Mv[1:]), initial=0.0) <= 1e-14 * scale
    # with row 0 scaled back by ||v|| M is unitary, so M is nonsingular
    U = M.copy()
    U[0] *= scale * np.linalg.norm(v / scale)
    assert np.allclose(U @ U.conj().T, np.eye(v.size), atol=1e-14)


def test_verify_c1_r1(r1):
    report = verify_linearization(build_C1(r1), r1)
    assert report.passed
    assert np.allclose(np.sort_complex(report.pencil_eigs), [1, 1], atol=1e-6)
    assert report.max_eig_error <= 1e-6
    assert report.full_z_rank == (True, True)


@pytest.mark.parametrize("source", ["c1", "c2", "dl", "l1s", "l1g", "l2g"])
def test_verify_reads_the_ansatz_pair_from_x_and_y(source):
    # a stale stored pair changes nothing: the residual and the Z-rank read the
    # pair that membership recovers from X and Y
    from dataclasses import replace

    rng = np.random.default_rng(7)
    R = random_realization(rng, 3, 4, 2, 3)
    builders = {"c1": build_C1, "c2": build_C2, "dl": build_DL}
    P = builders[source](R) if source in builders else sample_space(R, 3, source)
    report = verify_linearization(P, R)
    assert report.passed
    stale = replace(P, v=cgauss(rng, 3), w=np.array([3.0, 0.0]))
    assert verify_linearization(stale, R).to_dict() == report.to_dict()


def _certified_members():
    rng = np.random.default_rng(17)
    R = random_realization(rng, 3, 4, 2, 3)
    Rs, Rh = (make(rng, 2, 3, 2, 2) for make in (random_symmetric_realization,
                                                 random_hermitian_realization))
    yield "c1", build_C1(R), R
    yield "c2", build_C2(R), R
    yield "dl", build_DL(R), R
    for space in ("l1g", "l2g", "l1s"):
        yield space, sample_space(R, 5, space), R
    yield "sym", build_symmetric(Rs), Rs
    yield "herm", sample_space(Rh, 5, "herm"), Rh


def _count_z_rank(monkeypatch):
    import syspencils.spectra as spectra

    calls, z_rank_of = [], spectra.z_rank
    monkeypatch.setattr(spectra, "z_rank", lambda *a: calls.append(a) or z_rank_of(*a))
    return calls


def test_full_z_rank_is_z_rank_of_the_fitted_member_and_computed_once(monkeypatch):
    # the certificate is what z_rank gives for the pair membership fits; verify
    # itself never computes it, and the first read keeps it
    calls = _count_z_rank(monkeypatch)
    for label, P, R in _certified_members():
        report = verify_linearization(P, R)
        assert report.passed and calls == [], label
        v, w = membership(P.X, P.Y, R, P.space)
        cert = z_rank(replace(P, v=v, w=w), R)  # this module's own z_rank: not counted
        assert report.full_z_rank == (cert.full_L, cert.full_K) == (True, True), label
        assert report.full_z_rank == (True, True)  # a second read
        assert report.to_dict()["full_z_rank"] == [True, True]
        assert len(calls) == 1, label
        assert replace(report, reason="copied").full_z_rank == (True, True)
        calls.clear()
        verify_linearization(P, R).to_dict()
        assert len(calls) == 1, label
        calls.clear()


def test_full_z_rank_does_not_see_later_writes_to_the_pencil():
    R = random_realization(np.random.default_rng(18), 2, 3, 2, 2)
    for P in (build_C1(R), build_C2(R)):
        report = verify_linearization(P, R)
        P.X[...] = 0.0
        P.Y[...] = 0.0  # a report holding a view of Y would rank Z as 0
        assert report.full_z_rank == (True, True)
        assert z_rank(P, R).full_L is False


def _small_leading_coefficients():
    # A_m and D_k at 1e-9 of the rest: C1 sees eigenvalues the reference calls infinite
    R = random_realization(np.random.default_rng(0), 1, 2, 2, 1)
    return Realization(A=MatrixPolynomial((R.A.coeffs[0], 1e-9 * R.A.coeffs[1])), B=R.B,
                       C=R.C, D=MatrixPolynomial(R.D.coeffs[:-1] + (1e-9 * R.D.coeffs[-1],)))


def test_full_z_rank_on_every_fail_path(r1, monkeypatch):
    rng = np.random.default_rng(2)
    R = random_realization(rng, 2, 2, 2, 1)
    Rz = Realization(A=MatrixPolynomial((R.A.coeffs[0], R.A.coeffs[1], np.zeros((2, 2)))),
                     B=R.B, C=R.C, D=R.D)  # the benchmark's dl-zero-Am case
    Rc = _small_leading_coefficients()
    calls = _count_z_rank(monkeypatch)
    cases = [  # (report, reason it starts with, flags, z_rank calls on reading them)
        (verify_linearization(replace(build_C1(R), space="l2g"), R), "membership",
         (False, False), 0),
        (verify_linearization(build_pencil_L1(r1, [0.0], [0.0]), r1), "pencil is singular",
         (False, False), 1),  # ZeroAnsatz
        (verify_linearization(build_DL(Rz), Rz), "pencil is singular", (False, True), 1),
        (verify_linearization(build_C1(Rc), Rc), "eigenvalue count mismatch", (True, True), 1),
    ]
    assert calls == []
    for report, reason, flags, reads in cases:
        assert report.reason.startswith(reason)
        assert report.full_z_rank == flags and report.to_dict()["full_z_rank"] == list(flags)
        assert len(calls) == reads, reason
        calls.clear()


def test_verify_dl_with_zero_leading_coefficient_fails():
    rng = np.random.default_rng(2)
    R = random_realization(rng, 2, 2, 2, 1)
    Rz = Realization(
        A=MatrixPolynomial((R.A.coeffs[0], R.A.coeffs[1], np.zeros((2, 2)))),
        B=R.B, C=R.C, D=R.D)
    report = verify_linearization(build_DL(Rz), Rz)
    assert not report.passed


def test_verify_zero_pencil_fails(r1):
    P = build_pencil_L1(r1, [0.0], [0.0])
    report = verify_linearization(P, r1)
    assert not report.passed


def test_lift_right_r1(r1):
    u = lift_right(r1, np.array([1.0]), 1.0)
    assert np.allclose(u, [-1.0, 1.0])


def test_lift_right_trailing_block():
    rng = np.random.default_rng(3)
    R = random_realization(rng, 2, 2, 3, 2)
    x = cgauss(rng, 2)
    u = lift_right(R, x, 0.0)
    assert np.allclose(u[-2:], x)  # trailing 1 in the power stack


def test_recover_right_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(5):
        R = random_realization(rng, 2, 2, 2, 2)
        x = cgauss(rng, 2)
        lam0 = complex(cgauss(rng))
        u = lift_right(R, x, lam0)
        rec = recover_right(u, R.dims, R, lam0)
        xn = x / np.linalg.norm(x)
        phase = np.vdot(rec.x, xn)
        assert np.allclose(rec.x * phase / abs(phase), xn, atol=1e-10)
        assert eager_structural_residual(u, R, lam0, rec.x) < 1e-12


def test_recover_right_r1(r1):
    rec = recover_right(np.array([-1.0, 1.0]), r1.dims, r1, 1.0)
    assert abs(abs(rec.x[0]) - 1.0) < 1e-14
    assert np.linalg.norm(eval_transfer(r1, 1.0) @ rec.x) < 1e-12


def test_recover_right_end_to_end(r2):
    P = build_C1(r2)
    eigs = solve_pencil(P.X, P.Y)
    assert eigs.eigenvalues.size == 3
    for i, lam in enumerate(eigs.eigenvalues):
        rec = recover_right(eigs.right[:, i], r2.dims, r2, lam)
        assert np.linalg.norm(eval_transfer(r2, lam) @ rec.x) < 1e-8


def test_recover_reads_the_largest_bottom_block():
    rng = np.random.default_rng(5)
    R = random_realization(rng, 1, 2, 3, 2)
    x = cgauss(rng, 2)
    xn = x / np.linalg.norm(x)
    for lam0 in (0.3, 2.0, 40.0 - 30.0j):
        u = lift_right(R, x, lam0)
        stripped = u.copy()
        stripped[-2:] = 0.0  # strip the trailing block; a larger one is still usable
        for vec in (u, stripped):
            rec = recover_right(vec, R.dims, R, lam0)
            phase = np.vdot(rec.x, xn)
            assert np.allclose(rec.x * phase / abs(phase), xn, atol=1e-10)
        with pytest.raises(DegenerateVector):
            recover_right(np.zeros(R.dims.size), R.dims, R, lam0)
    # bottom blocks that disagree show which one is read: the block of largest
    # norm (here the middle one, power lam0), divided by its power of lam0
    lam0, blocks = 40.0 - 30.0j, cgauss(rng, 3, 2)
    blocks[1] *= 10.0
    u = np.concatenate([np.ones(R.dims.top), blocks.ravel()])
    want = blocks[1] / lam0
    assert np.allclose(recover_right(u, R.dims, R, lam0).x, want / np.linalg.norm(want),
                       rtol=0, atol=1e-14)


def test_lift_and_recover_left(r1):
    # the lifted vector is a genuine left null vector of the companion
    # pencil at the eigenvalue
    u = lift_left(r1, np.array([1.0]), 1.0)
    P = build_C1(r1)
    assert np.linalg.norm(u.conj() @ (1.0 * P.X + P.Y)) < 1e-13
    rng = np.random.default_rng(6)
    R = random_realization(rng, 2, 2, 2, 2)
    y = cgauss(rng, 2)
    lam0 = complex(cgauss(rng))
    u = lift_left(R, y, lam0)
    rec = recover_left(u, R.dims, R, lam0)
    yn = y / np.linalg.norm(y)
    phase = np.vdot(rec.x, yn)
    assert np.allclose(rec.x * phase / abs(phase), yn, atol=1e-10)
    assert eager_structural_residual(u, R, lam0, rec.x, left=True) < 1e-12


def test_recover_left_end_to_end(r2):
    P = build_C2(r2)
    eigs = solve_pencil(P.X, P.Y)
    for i, lam in enumerate(eigs.eigenvalues):
        rec = recover_left(eigs.left[:, i], r2.dims, r2, lam)
        res = rec.x.conj() @ eval_transfer(r2, lam)
        assert np.linalg.norm(res) < 1e-8


def test_f_map_r1(r1):
    f = f_map(r1, np.array([1.0]), 1.0)
    assert np.allclose(f, [-1.0, 1.0])
    S1 = np.array([[-1.0, -1.0], [1.0, 1.0]])  # S(1) for r1
    assert np.linalg.norm(S1 @ f) < 1e-14
    assert np.allclose(f_map(r1, np.array([0.0]), 1.0), [0.0, 0.0])


def test_f_and_g_maps_at_computed_zeros():
    rng = np.random.default_rng(7)
    for _ in range(4):
        R = random_realization(rng, 2, 2, 2, 2)
        zeros = system_zeros(R)
        lam0 = zeros[int(np.argmax(np.abs(zeros)))]
        S = eval_polymat(build_system_matrix(R), lam0)
        G = eval_transfer(R, lam0)
        # right and left null vectors of G at the zero
        _, _, Vh = np.linalg.svd(G)
        x = Vh[-1, :].conj()
        U, _, _ = np.linalg.svd(G)
        y = U[:, -1]
        assert np.linalg.norm(S @ f_map(R, x, lam0)) < 1e-8
        assert np.linalg.norm(g_map(R, y, lam0).conj() @ S) < 1e-8


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_f_and_g_maps_equal_the_lambda0_blocks_of_the_lifts(m, k):
    rng = np.random.default_rng(40 + 3 * m + k)
    R = random_realization(rng, m, 2, k, 3)
    x, lam0, t = cgauss(rng, 3), complex(cgauss(rng)), R.dims.top
    for null_map, lift in ((f_map, lift_right), (g_map, lift_left)):
        lifted = lift(R, x, lam0)
        assert np.array_equal(null_map(R, x, lam0),
                              np.concatenate([lifted[t - R.n:t], lifted[-R.r:]]))


def test_the_null_space_maps_are_bitwise_the_lambda0_blocks_on_random_dims():
    rng = np.random.default_rng(43)
    draws = [tuple(int(d) for d in rng.integers(1, 4, size=4)) for _ in range(40)]
    assert any(r > n for _, n, _, r in draws) and any(m != k for m, _, k, _ in draws)
    for m, n, k, r in draws:
        R = random_realization(rng, m, n, k, r)
        x, lam0, t = cgauss(rng, r), complex(cgauss(rng)) * 10.0 ** rng.uniform(-2, 2), R.dims.top
        for null_map, lift in ((f_map, lift_right), (g_map, lift_left)):
            lifted = lift(R, x, lam0)
            blocks = np.concatenate([lifted[t - n:t], lifted[-r:]])
            assert null_map(R, x, lam0).tobytes() == blocks.tobytes(), (m, n, k, r)


@pytest.mark.parametrize("call", [f_map, g_map, lift_right, lift_left],
                         ids=lambda f: f.__name__)
def test_the_null_space_maps_and_lifts_raise_at_a_pole(call):
    R = Realization(A=MatrixPolynomial.from_scalars(-1, 1), B=np.array([[1.0]]),
                    C=np.array([[2.0]]), D=MatrixPolynomial.from_scalars(0, 1))
    with pytest.raises(PoleError):
        call(R, np.array([1.0]), 1.0)


@pytest.mark.parametrize("call", ["recover_right", "recover_left", "lift_right",
                                  "lift_left", "f_map", "g_map"])
def test_a_size_mismatch_in_recovery_is_a_dimension_error(call):
    # a PencilError, so the CLI's per-eigenvalue except catches it
    rng = np.random.default_rng(41)
    R, lam0 = random_realization(rng, 2, 3, 2, 2), 0.3 + 0.2j
    if call.startswith("recover"):
        dims = BlockDims(1, 3, 2, 2)  # u fits these, R has m = 2
        args, match = (cgauss(rng, dims.size), dims, R, lam0), "do not match"
    else:
        args, match = (R, cgauss(rng, R.r + 1), lam0), "length must be 2"
    with pytest.raises(DimensionError, match=match):
        getattr(spectra, call)(*args)


def test_verify_rejects_a_pencil_whose_dims_are_not_the_realizations():
    # a C1 of (2, 2, 2, 1) data relabeled (1, 4, 2, 1) has the same side, 6, so
    # membership and the eigenvalues would pass it with a wrong Z-rank certificate
    R = random_realization(np.random.default_rng(42), 2, 2, 2, 1)
    P = build_C1(R)
    assert verify_linearization(P, R).full_z_rank == (True, True)
    relabeled = AnsatzPencil(X=P.X, Y=P.Y, dims=BlockDims(1, 4, 2, 1), space=P.space,
                             v=[1.0], w=P.w)
    with pytest.raises(DimensionError, match="do not match"):
        verify_linearization(relabeled, R)


@pytest.mark.parametrize("bad", [("X", 0, 1, np.nan), ("Y", 1, 0, np.inf),
                                 ("Y", 0, 0, complex(0.0, -np.inf))],
                         ids=["X-nan", "Y-inf", "Y-complex-inf"])
def test_a_non_finite_pencil_is_a_value_error_without_a_warning(bad):
    name, i, j, value = bad
    X, Y = np.eye(3, dtype=complex), np.diag([1.0, 2.0, 3.0]).astype(complex)
    (X if name == "X" else Y)[i, j] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: solve_pencil(X, Y), lambda: pencil_eigvals(X, Y)):
            with pytest.raises(ValueError, match=f"pencil.{name} must be finite"):
                call()


def test_a_finite_pencil_whose_norm_overflows_is_not_called_non_finite():
    # the one case where a Frobenius norm is not finite for finite entries: it
    # reads inf (a non-finite entry reads NaN), and the shift search runs
    X = np.array([[1.5e308, 1.5e308], [0.0, 1.5e308]], dtype=complex)
    assert spectra._norm(X) == math.inf and np.isfinite(X).all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # sigma X + Y overflows
        try:
            solve_pencil(X, np.eye(2))
        except SingularSystem:
            pass  # the shift search's verdict on entries at this scale, as before


_RECOVERY_DIMS = {"c1": (2, 2, 2, 1), "c2": (1, 3, 2, 2), "dl": (2, 2, 2, 2),
                  "sym": (2, 2, 1, 2), "herm": (1, 3, 2, 1), "l1g": (3, 1, 2, 2),
                  "l2g": (2, 2, 3, 1)}


#: The side whose eigenvectors are lifts: right for the first space, left for the second.
_LIFTING_SIDES = {"c1": ("right",), "c2": ("left",), "dl": ("right", "left"),
                  "sym": ("right",), "herm": ("right",), "l1g": ("right",), "l2g": ("left",)}


@pytest.mark.parametrize("label", list(_RECOVERY_DIMS))
def test_structural_residual_read_equals_the_eager_formula(label):
    # the structural residual ||c u - L|| of the eager formula, L the lift of the
    # recovered x at the best scale c, is rounding on the side that lifts
    make = {"sym": random_symmetric_realization,
            "herm": random_hermitian_realization}.get(label, random_realization)
    R = make(np.random.default_rng(42), *_RECOVERY_DIMS[label])
    build = {"c1": build_C1, "c2": build_C2, "dl": build_DL}.get(label)
    P = build(R) if build else sample_space(R, 43, label)
    eigs = solve_pencil(P.X, P.Y)
    for side in _LIFTING_SIDES[label]:
        left = side == "left"
        for i, lam in enumerate(eigs.eigenvalues):
            u = getattr(eigs, side)[:, i]
            x = (recover_left if left else recover_right)(u, P.dims, R, lam).x
            res = eager_structural_residual(u, R, lam, x, left)
            assert res <= 1e-10 * np.linalg.norm(u), (label, side, i, res)


def test_recovery_runs_no_solve_with_the_state_matrix(monkeypatch, tmp_path, capsys):
    # x and the system residual come from the pencil vector and S's coefficient row
    # alone, on both sides and in the CLI
    rng = np.random.default_rng(47)
    R = random_realization(rng, 2, 3, 2, 2)
    save_json(tmp_path / "problem.json", problem_to_dict(R))
    calls, solve = [], core.solve_state

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(core, "solve_state", counted)
    for build, recover, side in ((build_C1, recover_right, "right"),
                                 (build_C2, recover_left, "left")):
        P = build(R)
        eigs = solve_pencil(P.X, P.Y)
        for i, lam in enumerate(eigs.eigenvalues):
            recover(getattr(eigs, side)[:, i], P.dims, R, lam)
        save_pencil(tmp_path / f"{side}.json", P)
        assert main(["solve", "--pencil", str(tmp_path / f"{side}.json"),
                     "--input", str(tmp_path / "problem.json")]) == 0
    capsys.readouterr()
    assert calls == []
    eval_transfer(R, 0.5)  # the counter sees a solve where one runs
    assert len(calls) == 1


def test_a_recovered_vector_is_a_plain_value():
    R = random_realization(np.random.default_rng(49), 2, 3, 2, 2)
    for build, side in ((build_C1, "right"), (build_C2, "left")):
        P = build(R)
        eigs = solve_pencil(P.X, P.Y)
        vecs = getattr(eigs, side)
        for i, lam in enumerate(eigs.eigenvalues):
            u = np.ascontiguousarray(vecs[:, i])  # a vector recovery could keep as it is
            rec = (recover_right if side == "right" else recover_left)(u, P.dims, R, lam)
            assert vars(rec).keys() == {"x", "system_residual"}
            assert not np.shares_memory(rec.x, u)
            if side == "left":
                right = recover_right(np.conj(u), P.dims, transpose_realization(R), lam)
                assert rec.x.tobytes() == np.conj(right.x).tobytes()
                assert rec.system_residual == right.system_residual


def test_pencil_det_matches_solver():
    rng = np.random.default_rng(8)
    for _ in range(5):
        X, Y = cgauss(rng, 6, 6), cgauss(rng, 6, 6)
        roots = det_roots(MatrixPolynomial((Y, X)))
        assert roots.size == 6
        eigs = solve_pencil(X, Y).eigenvalues
        _, worst = match_multisets(roots, eigs)
        assert worst < 1e-8


def test_oracle_equivalence_small_sweep():
    # lighter companion of the acceptance sweep: 10 seeds, random sizes
    rng = np.random.default_rng(9)
    for seed in range(10):
        m, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n, r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        R = random_realization(rng, m, n, k, r)
        zeros = system_zeros(R)
        for P in (build_C1(R), build_C2(R), build_DL(R),
                  sample_space(R, seed=seed, space="l1g")):
            eigs = solve_pencil(P.X, P.Y).eigenvalues
            assert eigs.size == zeros.size
            _, worst = match_multisets(eigs, zeros)
            assert worst < 1e-6


def _report_key(report):
    """Every field of a report, arrays as raw bytes."""
    return (report.to_dict(), report.pencil_eigs.tobytes(), report.oracle_roots.tobytes())


def test_verify_computes_the_reference_once_per_realization(monkeypatch):
    import syspencils.core as core
    import syspencils.spaces as spaces
    import syspencils.spectra as spectra

    calls = {"eig": 0, "stacked": 0, "samples": 0, "l1s": 0, "fit": 0}
    eig, solve, samples = spectra.solve_pencil, core.solve_state, spectra.nonpole_samples
    l1s, fit = spaces._l1s_data, spaces._fit_row

    def counted_eig(X, Y, **kw):
        calls["eig"] += 1
        return eig(X, Y, **kw)

    def counted_solve(R, lam, rhs):
        calls["stacked"] += np.ndim(lam) == 1
        return solve(R, lam, rhs)

    def counted_samples(*args):
        calls["samples"] += 1
        return samples(*args)

    def counted_l1s(*args):
        calls["l1s"] += 1
        return l1s(*args)

    def counted_fit(P):
        calls["fit"] += 1
        return fit(P)

    monkeypatch.setattr(spectra, "solve_pencil", counted_eig)
    monkeypatch.setattr(core, "solve_state", counted_solve)
    monkeypatch.setattr(spectra, "nonpole_samples", counted_samples)
    monkeypatch.setattr(spaces, "_l1s_data", counted_l1s)
    monkeypatch.setattr(spaces, "_fit_row", counted_fit)
    R0 = random_realization(np.random.default_rng(41), 2, 3, 2, 2)
    for R in (R0, same_data(R0)):
        calls.update(eig=0, stacked=0, samples=0, l1s=0, fit=0)
        members = [build_C1(R), build_C2(R), build_DL(R),
                   sample_space(R, seed=1, space="l1g"), sample_space(R, seed=2, space="l1g"),
                   sample_space(R, seed=3, space="l1s"), sample_space(R, seed=4, space="l1s")]
        for P in members:
            assert verify_linearization(P, R).passed
        # one eigensolve per pencil plus one for the reference, one stacked solve
        # at the sample points per side (C1 and l1g right, C2 left, DL both; l1s
        # needs none), one l1s lift, and the fit rows of A and D of R and of its
        # transpose
        assert calls == {"eig": len(members) + 1, "stacked": 2, "samples": 1, "l1s": 1,
                         "fit": 4}
        kept = (R._l1s_data + R._transfer + R._transfer_dual
                + R._fit_rows[0][:2] + R._fit_rows[1][:2])
        assert not any(a.flags.writeable for a in kept)


@pytest.mark.parametrize("dims", [(2, 1, 3, 2), (3, 2, 2, 1)])
def test_kept_reference_changes_no_report(dims):
    rng = np.random.default_rng(43)
    data = [(random_realization(rng, *dims), ("l1g", "l2g", "l1s", "dl")),
            (random_symmetric_realization(rng, *dims), ("sym",)),
            (random_hermitian_realization(rng, *dims), ("herm",))]
    for R, spaces in data:
        members = [sample_space(R, seed=s, space=sp) for s, sp in enumerate(spaces)
                   if sp != "l1s" or R.r <= R.n]
        if spaces[0] == "l1g":
            members += [build_C1(R), build_C2(R), build_DL(R)]
        for P in members:
            verify_linearization(P, R)  # the first call for R computes what R keeps
            warm = verify_linearization(P, R)
            assert warm.passed, (dims, P.space)
            assert _report_key(warm) == _report_key(verify_linearization(P, same_data(R)))
            # caller-given points equal to verify's compute afresh, to the same bits
            v, w = membership(P.X, P.Y, R, P.space)  # the pair verify reads from X and Y
            assert residual_ansatz(replace(P, v=v, w=w), R,
                                   nonpole_samples(R, 10)) == warm.ansatz_residual
        zeros = system_zeros(R)
        assert system_zeros(R) is zeros and verify_linearization(members[0], R).oracle_roots is zeros
        with pytest.raises(ValueError):
            zeros[0] = 0.0


def test_a_singular_reference_raises_on_every_call():
    # S(lambda) is singular (D rank 1 at every lambda, B = C = 0): nothing is kept,
    # so system_zeros and verify raise again on the next call for the same R
    D = MatrixPolynomial((np.zeros((2, 2)), np.ones((2, 2))))
    R = Realization(A=MatrixPolynomial.from_scalars(0, 1), B=np.zeros((1, 2)),
                    C=np.zeros((2, 1)), D=D)
    for _ in range(2):
        with pytest.raises(SingularSystem):
            system_zeros(R)
        with pytest.raises(SingularSystem):
            verify_linearization(build_C1(R), R)


@pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((2, 3), (2, 3)), ((2, 2, 2), (2, 2, 2))],
                         ids=["unequal", "not-square", "3-D"])
def test_solve_pencil_rejects_coefficients_of_the_wrong_shape(shapes):
    X, Y = (np.ones(shape) for shape in shapes)
    with pytest.raises(DimensionError, match=r"^pencil coefficients must be square and of equal"):
        solve_pencil(X, Y)


@pytest.mark.parametrize("shape", [(5,), (7,), (2, 4)])
@pytest.mark.parametrize("recover", [recover_right, recover_left])
def test_recovery_rejects_a_vector_of_the_wrong_size(recover, shape):
    R = random_realization(np.random.default_rng(43), 2, 2, 1, 2)  # side 6
    with pytest.raises(DimensionError, match=r"^vector length must be 6$"):
        recover(np.ones(shape), R.dims, R, 0.3 + 0.2j)


def test_verify_fails_on_an_eigenvalue_mismatch_below_the_achieved_error():
    # a member whose residual passes, judged at half the eigenvalue error it achieves:
    # the report is the passing one with the verdict and reason of a mismatch
    R = random_realization(np.random.default_rng(0), 2, 2, 2, 1)
    P = build_C1(R)
    report = verify_linearization(P, R)
    assert report.passed and report.max_eig_error > 0.0
    assert report.ansatz_residual <= default_tol_res(P, R)
    tol = report.max_eig_error / 2
    failed = verify_linearization(P, R, tol_eig=tol)
    assert failed.reason == f"eigenvalue mismatch {report.max_eig_error:.2e} > {tol:.2e}"
    assert failed.to_dict() == {**report.to_dict(), "verdict": "fail", "reason": failed.reason}
