import warnings

import numpy as np
import pytest
from conftest import (
    cgauss,
    random_hermitian_realization,
    random_realization,
    random_symmetric_realization,
    same_data,
    scaled_realization,
)
from oracles import constraint_nullity, det_scalar_poly, residual_l1s_per_point

from syspencils import (
    SPACE_DL,
    SPACE_L1G,
    SPACE_L1S,
    SPACE_L2G,
    BlockDims,
    DegenerateFit,
    DimensionError,
    MatrixPolynomial,
    NotAMember,
    PoleError,
    Realization,
    StructureError,
    build_C1,
    build_C2,
    build_DL,
    build_hermitian,
    build_pencil_L1,
    build_pencil_L2,
    build_symmetric,
    dim_space,
    membership,
    nonpole_samples,
    residual_ansatz,
    sample_space,
    solve_pencil,
    transpose_realization,
    verify_linearization,
)
from syspencils.core import is_hermitian_realization, is_symmetric_realization


def _random_member(rng, R, space=SPACE_L1G):
    m, n, k, r = R.m, R.n, R.k, R.r
    v, w = cgauss(rng, m), cgauss(rng, k)
    W = cgauss(rng, m * n, (m - 1) * n) if m > 1 else None
    W1 = cgauss(rng, k * r, (k - 1) * r) if k > 1 else None
    if space == SPACE_L2G:
        return build_pencil_L2(R, v, w, W, W1), v, w
    return build_pencil_L1(R, v, w, W, W1, space), v, w


def test_build_l1_scalar_companion(r1):
    P = build_pencil_L1(r1, [1.0], [1.0])
    assert np.allclose(P.X, np.eye(2))
    assert np.allclose(P.Y, np.array([[-2, -1], [1, 0]]))
    C1 = build_C1(r1)
    assert np.allclose(P.X, C1.X) and np.allclose(P.Y, C1.Y)


def test_build_l1_zero_ansatz_gives_zero_pencil():
    rng = np.random.default_rng(0)
    R = random_realization(rng, 2, 2, 2, 1)
    P = build_pencil_L1(R, np.zeros(2), np.zeros(2),
                        np.zeros((4, 2)), np.zeros((2, 1)))
    assert not np.any(P.X) and not np.any(P.Y)


def test_build_l1_first_transfer_example():
    # degree pattern of the first worked transfer-function example:
    # A = A0 - lambda*A1 (m = 1), D of degree 2, v = 1, w = (1, 1),
    # W1 = [D1 + D0 ; 2 D1 + D2]
    rng = np.random.default_rng(1)
    A0, A1, B, C, D0, D1, D2 = (cgauss(rng, 2, 2) for _ in range(7))
    R = Realization(A=MatrixPolynomial((A0, -A1)), B=B, C=C,
                    D=MatrixPolynomial((D0, D1, D2)))
    W1 = np.vstack([D1 + D0, 2 * D1 + D2])
    P = build_pencil_L1(R, [1.0], [1.0, 1.0], None, W1)
    Z = np.zeros((2, 2))
    X_expected = np.block([
        [-A1, Z, Z],
        [Z, D2, D1 + D0],
        [Z, D2, 2 * D1 + D2],
    ])
    Y_expected = np.block([
        [A0, Z, -B],
        [C, -D0, D0],
        [C, -D2 - D1, D0],
    ])
    assert np.allclose(P.X, X_expected, atol=1e-14)
    assert np.allclose(P.Y, Y_expected, atol=1e-14)
    assert residual_ansatz(P, R, nonpole_samples(R, 20, seed=2)) < 1e-10


def test_build_l2_scalar_equals_c1(r1):
    P = build_pencil_L2(r1, [1.0], [1.0])
    C1 = build_C1(r1)
    assert np.allclose(P.X, C1.X) and np.allclose(P.Y, C1.Y)


def test_build_l2_second_transfer_example():
    # printed second-space example: X = diag(-A1, D2, -D0),
    # Y = [[A0, -B, 0], [0, D1, D0], [C, D0, 0]] with (s, z) = (1, e1)
    rng = np.random.default_rng(3)
    A0, A1, B, C, D0, D1, D2 = (cgauss(rng, 2, 2) for _ in range(7))
    R = Realization(A=MatrixPolynomial((A0, -A1)), B=B, C=C,
                    D=MatrixPolynomial((D0, D1, D2)))
    W1 = np.vstack([np.zeros((2, 2)), -D0.T])
    P = build_pencil_L2(R, [1.0], [1.0, 0.0], None, W1)
    Z = np.zeros((2, 2))
    X_expected = np.block([[-A1, Z, Z], [Z, D2, Z], [Z, Z, -D0]])
    Y_expected = np.block([[A0, -B, Z], [Z, D1, D0], [C, D0, Z]])
    assert np.allclose(P.X, X_expected, atol=1e-14)
    assert np.allclose(P.Y, Y_expected, atol=1e-14)
    assert residual_ansatz(P, R, nonpole_samples(R, 20, seed=4)) < 1e-10


def test_build_l2_transpose_is_l1_member():
    rng = np.random.default_rng(5)
    for _ in range(5):
        R = random_realization(rng, 2, 2, 2, 2)
        P, s, z = _random_member(rng, R, SPACE_L2G)
        v, w = membership(P.X.T, P.Y.T, transpose_realization(R), SPACE_L1G)
        assert np.allclose(v, s, atol=1e-10)
        assert np.allclose(w, z, atol=1e-10)


def test_c1_r2_determinant(r2):
    P = build_C1(r2)
    pencil_poly = MatrixPolynomial((P.Y, P.X))
    coeffs = det_scalar_poly(pencil_poly)
    assert np.allclose(coeffs, [1, 1, 0, 1], atol=1e-10)  # lambda^3+lambda+1


def test_c1_membership_recovers_first_unit_pair():
    rng = np.random.default_rng(6)
    for (m, n, k, r) in ((1, 1, 1, 1), (2, 2, 2, 1), (3, 2, 2, 2)):
        R = random_realization(rng, m, n, k, r)
        P = build_C1(R)
        v, w = membership(P.X, P.Y, R)
        assert np.allclose(v, np.eye(m)[0], atol=1e-12)
        assert np.allclose(w, np.eye(k)[0], atol=1e-12)


def test_c2_scalar_equals_c1(r1):
    P1, P2 = build_C1(r1), build_C2(r1)
    assert np.allclose(P1.X, P2.X) and np.allclose(P1.Y, P2.Y)


def test_c2_r2_layout_and_determinant(r2):
    P = build_C2(r2)
    assert np.allclose(P.X, np.eye(3))
    assert np.allclose(P.Y, np.array([[0, -1, 0], [1, 0, -1], [1, 0, 0]]))
    coeffs = det_scalar_poly(MatrixPolynomial((P.Y, P.X)))
    assert np.allclose(coeffs, [1, 1, 0, 1], atol=1e-10)
    assert residual_ansatz(P, r2, nonpole_samples(r2, 10, seed=7)) < 1e-13


def test_dl_scalar_equals_c1(r1):
    P, C1 = build_DL(r1), build_C1(r1)
    assert np.allclose(P.X, C1.X) and np.allclose(P.Y, C1.Y)


def test_dl_satisfies_both_identities_and_membership():
    rng = np.random.default_rng(8)
    for (m, n, k, r) in ((2, 2, 2, 1), (3, 1, 2, 2)):
        R = random_realization(rng, m, n, k, r)
        P = build_DL(R)
        assert residual_ansatz(P, R, nonpole_samples(R, 15, seed=9)) < 1e-10
        v, w = membership(P.X, P.Y, R, SPACE_L1G)
        assert np.allclose(v, np.eye(m)[m - 1], atol=1e-12)
        assert np.allclose(w, np.eye(k)[k - 1], atol=1e-12)
        # block-symmetric, so the same matrices pass second-space membership
        s, z = membership(P.X, P.Y, R, SPACE_L2G)
        assert np.allclose(s, np.eye(m)[m - 1], atol=1e-12)
        assert np.allclose(z, np.eye(k)[k - 1], atol=1e-12)


def test_dl_membership_tests_the_second_space_half():
    # first-space members whose transposes are no first-space members of the
    # transpose data: one with the double-ansatz pair (e_m, e_k) but random free
    # blocks, and one with the pair (e_m, b e_k) and DL's free blocks, the bottom one
    # times b.  The latter is DL with its bottom partition times b: its block layout
    # is that of DL, so a dl check that reads block symmetry alone accepts it
    from dataclasses import replace

    rng = np.random.default_rng(31)
    for (m, n, k, r) in ((2, 2, 2, 1), (3, 1, 2, 2), (2, 1, 3, 1)):
        R = random_realization(rng, m, n, k, r)
        dl, t, b = build_DL(R), m * n, complex(*rng.standard_normal(2))
        scaled = build_pencil_L1(R, np.eye(m)[-1], b * np.eye(k)[-1],
                                 dl.X[:t, n:t], b * dl.X[t:, t + r:])
        for M in (dl.X, dl.Y):
            M[t:] *= b
        assert np.allclose(scaled.X, dl.X) and np.allclose(scaled.Y, dl.Y)
        random_blocks = build_pencil_L1(R, np.eye(m)[-1], np.eye(k)[-1],
                                        cgauss(rng, m * n, (m - 1) * n),
                                        cgauss(rng, k * r, (k - 1) * r))
        for P in (random_blocks, scaled):
            membership(P.X, P.Y, R, SPACE_L1G)
            with pytest.raises(NotAMember):
                membership(P.X, P.Y, R, SPACE_DL)
            assert verify_linearization(replace(P, space=SPACE_DL), R).reason.startswith(
                "membership: ")
        dl = build_DL(R)
        v, w = membership(dl.X, dl.Y, R, SPACE_DL)
        assert np.allclose(v, np.eye(m)[-1], atol=1e-12)
        assert np.allclose(w, np.eye(k)[-1], atol=1e-12)


def test_structured_tags_require_elementwise_structure():
    # a first-space member of symmetric data with the structured pair (e_m, -e_k)
    # but random free blocks: X and Y are neither symmetric nor Hermitian
    from dataclasses import replace

    R = random_symmetric_realization(np.random.default_rng(5), 2, 2, 2, 1)
    rng = np.random.default_rng(6)
    P = build_pencil_L1(R, np.eye(2)[1], -np.eye(2)[1], cgauss(rng, 4, 2), cgauss(rng, 2, 1))
    membership(P.X, P.Y, R, SPACE_L1G)
    for tag in ("sym", "herm"):
        with pytest.raises(NotAMember, match="structure deviation"):
            membership(P.X, P.Y, R, tag)
        assert verify_linearization(replace(P, space=tag), R).reason.startswith(
            "membership: ")
    Rh = random_hermitian_realization(np.random.default_rng(7), 2, 2, 2, 1)
    for Rs, tag, build in ((R, "sym", build_symmetric), (Rh, "herm", build_hermitian)):
        S = build(Rs)
        v, w = membership(S.X, S.Y, Rs, tag)
        assert np.allclose(v, S.v, atol=1e-12) and np.allclose(w, S.w, atol=1e-12)
        assert verify_linearization(S, Rs).passed


def _dl_partition_reference(P, deg, blk):
    """X and Y of one diagonal partition of the double-ansatz pencil, by the
    defining block formulas: X(i, j) = P_{2d+1-i-j} for i + j >= d + 1;
    Y(i, j) = -P_{2d-i-j} for i, j <= d - 1 and i + j >= d, plus P_0 at (d, d)."""
    X = np.zeros((deg * blk, deg * blk), dtype=complex)
    Y = np.zeros((deg * blk, deg * blk), dtype=complex)
    for i in range(1, deg + 1):
        for j in range(1, deg + 1):
            block = np.s_[(i - 1) * blk : i * blk, (j - 1) * blk : j * blk]
            if i + j >= deg + 1:
                X[block] = P.coefficient(2 * deg + 1 - i - j)
            if i <= deg - 1 and j <= deg - 1 and i + j >= deg:
                Y[block] = -P.coefficient(2 * deg - i - j)
    Y[(deg - 1) * blk :, (deg - 1) * blk :] = P.coefficient(0)
    return X, Y


@pytest.mark.parametrize("kind", ["dl", "sym", "herm"])
def test_double_ansatz_members_match_block_formulas(kind):
    # the first-space assembler with anti-Hankel free blocks reproduces the
    # anti-Hankel layout exactly; sym and herm negate the bottom partition
    rng = np.random.default_rng(14)
    make = {"dl": random_realization, "sym": random_symmetric_realization,
            "herm": random_hermitian_realization}[kind]
    build = {"dl": build_DL, "sym": build_symmetric, "herm": build_hermitian}[kind]
    sign = 1.0 if kind == "dl" else -1.0
    for (m, n, k, r) in ((1, 1, 1, 1), (2, 2, 3, 1), (3, 1, 1, 2), (4, 2, 2, 3)):
        R = make(rng, m, n, k, r)
        P = build(R)
        XA, YA = _dl_partition_reference(R.A, m, n)
        XD, YD = _dl_partition_reference(R.D, k, r)
        e = np.outer(np.eye(m)[m - 1], np.eye(k)[k - 1])
        X = np.block([[XA, np.zeros((m * n, k * r))], [np.zeros((k * r, m * n)), sign * XD]])
        Y = np.block([[YA, -np.kron(e, R.B)], [sign * np.kron(e.T, R.C), sign * YD]])
        assert np.array_equal(P.X, X) and np.array_equal(P.Y, Y)
        assert np.array_equal(P.v, np.eye(m)[m - 1])
        assert np.array_equal(P.w, sign * np.eye(k)[k - 1])


def test_symmetric_scalar_r1(r1):
    # the symmetric ray representative negates the bottom partition, so it
    # differs entrywise from the companion pencil but shares its spectrum
    P = build_symmetric(r1)
    assert np.allclose(P.X, P.X.T) and np.allclose(P.Y, P.Y.T)
    assert residual_ansatz(P, r1, nonpole_samples(r1, 10, seed=10)) < 1e-13
    eigs = np.sort_complex(solve_pencil(P.X, P.Y).eigenvalues)
    assert np.allclose(eigs, [1.0, 1.0], atol=1e-6)


def test_symmetric_random():
    rng = np.random.default_rng(11)
    R = random_symmetric_realization(rng, 2, 2, 2, 1)
    P = build_symmetric(R)
    assert np.max(np.abs(P.X - P.X.T)) < 1e-14
    assert np.max(np.abs(P.Y - P.Y.T)) < 1e-14
    assert residual_ansatz(P, R, nonpole_samples(R, 15, seed=12)) < 1e-10


def test_symmetric_rejects_asymmetric():
    # the structure tolerance is 1e-10 times the data's own scale, not 1e-10
    R = random_realization(np.random.default_rng(13), 2, 2, 2, 1)
    for build in (build_symmetric, build_hermitian):
        for scale in (1.0, 1e-11):
            with pytest.raises(StructureError):
                build(scaled_realization(R, scale))


def test_hermitian_real_data_matches_symmetric():
    rng = np.random.default_rng(14)
    R = random_symmetric_realization(rng, 2, 2, 2, 1)
    Rreal = Realization(
        A=MatrixPolynomial(tuple(c.real.astype(complex) for c in R.A.coeffs)),
        B=R.B.real, C=R.B.real.T.copy(),
        D=MatrixPolynomial(tuple(c.real.astype(complex) for c in R.D.coeffs)))
    Ps, Ph = build_symmetric(Rreal), build_hermitian(Rreal)
    assert np.allclose(Ps.X, Ph.X) and np.allclose(Ps.Y, Ph.Y)


def test_hermitian_random():
    rng = np.random.default_rng(15)
    R = random_hermitian_realization(rng, 2, 2, 2, 1)
    P = build_hermitian(R)
    assert np.max(np.abs(P.X - P.X.conj().T)) < 1e-14
    assert np.max(np.abs(P.Y - P.Y.conj().T)) < 1e-14
    assert residual_ansatz(P, R, nonpole_samples(R, 15, seed=16)) < 1e-10
    with pytest.raises(StructureError):
        build_hermitian(random_realization(rng, 2, 2, 2, 1))


def test_membership_zero_pencil():
    rng = np.random.default_rng(17)
    R = random_realization(rng, 2, 2, 2, 1)
    s = R.dims.size
    v, w = membership(np.zeros((s, s)), np.zeros((s, s)), R)
    assert np.allclose(v, 0) and np.allclose(w, 0)


def test_membership_rejects_perturbation(r1):
    P = build_C1(r1)
    Y = P.Y.copy()
    Y[0, 1] += 1.0
    with pytest.raises(NotAMember):
        membership(P.X, Y, r1)


def test_membership_at_a_data_scale_of_1e160():
    # the fit's sum of squares of 1e160-sized coefficients overflowed: the pair
    # came out NaN, and a NaN residual passed any tolerance
    rng = np.random.default_rng(3)
    R0 = random_realization(rng, 2, 2, 2, 1)

    def big(P):
        return MatrixPolynomial(tuple(c * 1e160 for c in P.coeffs))

    R = Realization(A=big(R0.A), B=R0.B * 1e160, C=R0.C * 1e160, D=big(R0.D))
    P = build_C1(R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, w = membership(P.X, P.Y, R)
        assert np.allclose(v, [1, 0]) and np.allclose(w, [1, 0])
        Y = P.Y.copy()
        Y[0, 0] += 0.5e160
        for bad in (Y, 3 * P.Y):
            with pytest.raises(NotAMember):
                membership(P.X, bad, R)


# one entry in each region of the shifted-sum pattern for (m, n, k, r) =
# (3, 1, 2, 2): the top partition ends at column t = 3, the pencil side is 7
_PATTERN_REGIONS = {
    "Y_top_left": ("Y", 1, 1),
    "Y_top_right": ("Y", 0, 3),  # off the B column
    "Y_bottom_left": ("Y", 3, 0),  # off the C column
    "Y_bottom_right": ("Y", 4, 4),
    "B_column": ("Y", 1, 6),  # trailing block column of the top right
    "C_column": ("Y", 4, 2),  # trailing block column of the bottom left
    "X_top_right": ("X", 0, 4),
    "X_bottom_left": ("X", 4, 1),
}


@pytest.mark.parametrize("region", sorted(_PATTERN_REGIONS))
def test_membership_rejects_a_perturbation_in_each_region(region):
    rng = np.random.default_rng(21)
    R = random_realization(rng, 3, 1, 2, 2)  # r > n and m != k
    P = sample_space(R, seed=4, space=SPACE_L1G)
    X, Y = P.X.copy(), P.Y.copy()
    v, w = membership(X, Y, R)
    assert np.allclose(v, P.v) and np.allclose(w, P.w)
    name, i, j = _PATTERN_REGIONS[region]
    {"X": X, "Y": Y}[name][i, j] += 1e-4
    with pytest.raises(NotAMember):
        membership(X, Y, R)


@pytest.mark.parametrize("space", ["l1g", "l2g", "dl", "sym", "herm"])
def test_membership_leaves_read_only_operands_unchanged(space):
    rng = np.random.default_rng(17)
    make = {"sym": random_symmetric_realization,
            "herm": random_hermitian_realization}.get(space, random_realization)
    R = make(rng, 2, 3, 2, 2)
    P = sample_space(R, 5, space)
    X, Y = np.array(P.X), np.array(P.Y)
    expected = membership(X, Y, R, space)
    before = X.tobytes(), Y.tobytes()
    X.setflags(write=False)
    Y.setflags(write=False)
    got = membership(X, Y, R, space)  # the fitted pattern is subtracted from its own buffer
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
    assert (X.tobytes(), Y.tobytes()) == before


def test_membership_degenerate_fit():
    # all-zero A coefficients leave the ansatz vector unidentifiable
    R = Realization(A=MatrixPolynomial((np.zeros((1, 1)), np.zeros((1, 1)))),
                    B=np.array([[1.0]]), C=np.array([[1.0]]),
                    D=MatrixPolynomial.from_scalars(0, 1))
    with pytest.raises(DegenerateFit):
        membership(np.zeros((2, 2)), np.zeros((2, 2)), R)


def test_membership_recovery_and_residual_random_members():
    rng = np.random.default_rng(18)
    for _ in range(8):
        m, k = rng.integers(1, 4), rng.integers(1, 4)
        n, r = rng.integers(1, 4), rng.integers(1, 3)
        R = random_realization(rng, m, n, k, r)
        P, v, w = _random_member(rng, R)
        vf, wf = membership(P.X, P.Y, R)
        assert np.max(np.abs(vf - v)) < 1e-10
        assert np.max(np.abs(wf - w)) < 1e-10
        assert residual_ansatz(P, R, nonpole_samples(R, 20, seed=19)) < 1e-10


def test_membership_equivalence_with_residual(r2):
    # the shifted-sum test and the evaluated identity agree in both directions
    P = build_C1(r2)
    assert residual_ansatz(P, r2, nonpole_samples(r2, 10, seed=20)) < 1e-12
    membership(P.X, P.Y, r2)
    Y = P.Y.copy()
    Y[0, 2] += 0.5
    bad = type(P)(X=P.X, Y=Y, dims=P.dims, space=P.space, v=P.v, w=P.w)
    assert residual_ansatz(bad, r2, nonpole_samples(r2, 10, seed=20)) > 1e-3
    with pytest.raises(NotAMember):
        membership(P.X, Y, r2)


def _companion_scale(R):
    """The power of two s with s <= R.scale < 2s, which C1's identity free blocks carry."""
    return 2.0 ** (np.frexp(R.scale)[1] - 1)


def test_first_unit_ansatz_block_pattern():
    # ansatz (alpha e1, beta e1) forces the corollary block pattern; the
    # companion pencil matches it with Z = -s I, s the power of two at the data's scale
    rng = np.random.default_rng(21)
    R = random_realization(rng, 3, 2, 2, 2)
    m, n, k, r = 3, 2, 2, 2
    alpha, beta = 1.3 - 0.2j, 0.7 + 0.4j
    e1m, e1k = np.zeros(m, complex), np.zeros(k, complex)
    e1m[0], e1k[0] = alpha, beta
    P = build_pencil_L1(R, e1m, e1k, cgauss(rng, m * n, (m - 1) * n),
                        cgauss(rng, k * r, (k - 1) * r))
    t = m * n
    # X rows below the first block row vanish in the leading block column
    assert np.allclose(P.X[n:t, :n], 0)
    assert np.allclose(P.X[t + r:, t:t + r], 0)
    # Y rows below the first block row vanish in the trailing block column
    assert np.allclose(P.Y[n:t, t - n:t], 0)
    assert np.allclose(P.Y[n:t, t:], 0)
    C1 = build_C1(R)
    Z = C1.Y[n:t, :t - n]
    s = _companion_scale(R)
    assert s <= R.scale < 2 * s
    assert np.array_equal(Z, -s * np.eye((m - 1) * n))


def test_dim_space_formula():
    assert dim_space(BlockDims(1, 5, 1, 3)) == 2
    assert dim_space(BlockDims(2, 2, 2, 1)) == 14
    assert dim_space(BlockDims(1, 1, 1, 1)) == 2


def test_dim_space_matches_nullity_oracle():
    rng = np.random.default_rng(22)
    R = random_realization(rng, 2, 2, 2, 1)
    assert constraint_nullity(R) == dim_space(BlockDims(2, 2, 2, 1)) == 14


def test_sample_space_deterministic_and_member():
    rng = np.random.default_rng(23)
    R = random_realization(rng, 2, 2, 2, 1)
    for space in ("l1g", "l2g", "dl"):
        P1 = sample_space(R, seed=77, space=space)
        P2 = sample_space(R, seed=77, space=space)
        assert np.array_equal(P1.X, P2.X) and np.array_equal(P1.Y, P2.Y)
        membership(P1.X, P1.Y, R, space if space != "dl" else SPACE_L1G)


def test_sample_space_spans_the_space():
    rng = np.random.default_rng(24)
    R = random_realization(rng, 2, 2, 2, 1)
    vecs = []
    base = sample_space(R, seed=0, space=SPACE_L1G)
    b = np.concatenate([base.X.ravel(), base.Y.ravel()])
    for seed in range(1, 100):
        P = sample_space(R, seed=seed, space=SPACE_L1G)
        vecs.append(np.concatenate([P.X.ravel(), P.Y.ravel()]) - b)
    sv = np.linalg.svd(np.array(vecs), compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    assert rank == 14


def test_residual_ansatz_l1s(r1):
    P = build_pencil_L1(r1, [1.0], [1.0], space=SPACE_L1S)
    assert residual_ansatz(P, r1, [0.0, 1.0, 3.0]) < 1e-14
    Y = P.Y.copy()
    Y[0, 1] += 1.0
    bad = type(P)(X=P.X, Y=Y, dims=P.dims, space=SPACE_L1S, v=P.v, w=P.w)
    assert residual_ansatz(bad, r1, [0.0, 1.0, 3.0]) >= 0.1
    zero = type(P)(X=np.zeros((2, 2)), Y=np.zeros((2, 2)), dims=P.dims,
                   space=SPACE_L1S, v=np.zeros(1), w=np.zeros(1))
    assert residual_ansatz(zero, r1, [0.0, 1.0, 3.0]) == 0.0


def test_residual_l1s_equals_the_per_point_loop():
    # the stacked lifts and targets round like the per-point ones, up to the
    # order of the rounding in each product
    rng = np.random.default_rng(34)
    for dims in ((1, 1, 1, 1), (2, 3, 2, 2), (3, 2, 1, 2), (2, 4, 3, 1)):
        R = random_realization(rng, *dims)
        P, _, _ = _random_member(rng, R, SPACE_L1S)
        bad = type(P)(X=P.X, Y=P.Y + 1e-6 * cgauss(rng, *P.Y.shape), dims=P.dims,
                      space=SPACE_L1S, v=P.v, w=P.w)
        lams = np.concatenate([nonpole_samples(R, 10, seed=35), [0.0, 1.5j]])
        tol = 1e-14 * (1.0 + R.scale)
        for Q in (P, bad):
            for points in (lams, lams[:1]):
                expected = residual_l1s_per_point(Q, R, points)
                assert abs(residual_ansatz(Q, R, points) - expected) <= tol
    assert residual_ansatz(P, R, []) == 0.0


def _deviation_per_point(X, Y, lams, M, target):
    out = np.stack([(lam * X + Y) @ Mi for lam, Mi in zip(lams, M)])
    out[:, -target.shape[1]:] -= target
    return float(np.abs(out).max())


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 3, 2, 2), (3, 2, 1, 2)])
def test_stacked_deviation_equals_the_per_point_loop(dims):
    # one broadcast (lam X + Y) @ M for all points runs the products of the loop
    from syspencils.core import _kron_col, _lift
    from syspencils.spaces import _l1s_data, _max_deviation

    rng = np.random.default_rng(36)
    R = random_realization(rng, *dims)
    members = [build_C1(R), build_C2(R), build_DL(R)] + [
        _random_member(rng, R, space)[0] for space in (SPACE_L1G, SPACE_L2G, SPACE_L1S)]
    verify_linearization(members[0], R)  # R keeps its sample points and their data
    given = np.concatenate([nonpole_samples(R, 10, seed=35), [0.0, 1.5j]])
    for points in (R._samples, given):
        for P in members:
            if P.space == SPACE_L1S:
                M, TA, TD = _l1s_data(R, points)
                sides = [(P.X, P.Y, M, np.concatenate([_kron_col(P.v, TA),
                                                       _kron_col(P.w, TD)], axis=1))]
            else:
                halves = []
                if P.space != SPACE_L2G:
                    halves.append((P.X, P.Y, R))
                if P.space in (SPACE_L2G, SPACE_DL):
                    halves.append((P.X.T, P.Y.T, transpose_realization(R)))
                sides = [(X, Y, M, _kron_col(P.w, G)) for X, Y, Rs in halves
                         for M, G in [_lift(Rs, points, np.eye(Rs.r))]]
            loops = [_deviation_per_point(X, Y, points, M, T) for X, Y, M, T in sides]
            assert [_max_deviation(X, Y, points, M, T) for X, Y, M, T in sides] == loops
            assert residual_ansatz(P, R, points) == max(loops), P.space


def test_l1s_matrix_case_identity():
    # padded-identity variant on a genuinely rectangular partition (n > r)
    rng = np.random.default_rng(30)
    R = random_realization(rng, 2, 3, 2, 2)
    P, v, w = _random_member(rng, R, SPACE_L1S)
    assert residual_ansatz(P, R, nonpole_samples(R, 15, seed=31)) < 1e-10
    vf, wf = membership(P.X, P.Y, R, SPACE_L1S)
    assert np.max(np.abs(vf - v)) < 1e-10 and np.max(np.abs(wf - w)) < 1e-10


def test_symmetric_pencil_satisfies_transposed_row_identity():
    # transposing the column identity of a symmetric member yields the row
    # identity with +C A^{-1} on the left (not the second-space convention
    # with the minus sign, which elementwise symmetry is incompatible with)
    rng = np.random.default_rng(32)
    R = random_symmetric_realization(rng, 2, 2, 2, 1)
    P = build_symmetric(R)
    v, w = membership(P.X, P.Y, R, SPACE_L1G)
    assert np.allclose(v, [0, 1], atol=1e-12) and np.allclose(w, [0, -1], atol=1e-12)
    from syspencils import eval_transfer, lambda_vector
    from syspencils.core import eval_polymat, solve_state_left

    for lam in nonpole_samples(R, 10, seed=33):
        CAinv = solve_state_left(R, lam, R.C)
        row = np.hstack([
            np.kron(lambda_vector(R.m, lam).reshape(1, -1), CAinv),
            np.kron(lambda_vector(R.k, lam).reshape(1, -1), np.eye(R.r)),
        ])
        target = np.hstack([
            np.zeros((R.r, R.m * R.n)),
            np.kron(w.reshape(1, -1), eval_transfer(R, lam)),
        ])
        assert np.max(np.abs(row @ P(lam) - target)) < 1e-10


def test_l1s_rejects_wide_output():
    rng = np.random.default_rng(25)
    R = random_realization(rng, 2, 1, 2, 2)  # r > n
    # every pencil is made by AnsatzPencil, which rejects the tag
    with pytest.raises(DimensionError, match="AnsatzPencil.space 'l1s' needs r <= n, got r=2, n=1"):
        build_pencil_L1(R, cgauss(rng, 2), cgauss(rng, 2), space=SPACE_L1S)
    # the transfer-function space has no such restriction
    build_pencil_L1(R, cgauss(rng, 2), cgauss(rng, 2),
                    cgauss(rng, 2, 1), cgauss(rng, 4, 2), space=SPACE_L1G)


def test_dl_space_tag_checks_both_identities():
    rng = np.random.default_rng(26)
    R = random_realization(rng, 2, 2, 2, 1)
    P = build_DL(R)
    assert P.space == SPACE_DL
    assert residual_ansatz(P, R, nonpole_samples(R, 10, seed=27)) < 1e-11


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["X", "Y", "v", "w"])
def test_ansatz_pencil_rejects_non_finite(name, bad):
    from dataclasses import replace

    rng = np.random.default_rng(3)
    P, _, _ = _random_member(rng, random_realization(rng, 2, 2, 2, 1))
    value = np.array(getattr(P, name))
    value.flat[-1] = bad
    with pytest.raises(ValueError, match=f"AnsatzPencil.{name} "):
        replace(P, **{name: value})


@pytest.mark.parametrize("build", [build_C1, build_C2, build_DL])
def test_residual_ansatz_at_an_eigenvalue_of_a_raises_pole_error(r1, build):
    # A(lambda) = lambda - 2: the transfer identity needs A(2)^{-1}
    with pytest.raises(PoleError):
        residual_ansatz(build(r1), r1, [0.5, 2.0])


_BUILDERS = {"c1": build_C1, "c2": build_C2, "dl": build_DL, "sym": build_symmetric,
             "herm": build_hermitian}
_DATA = {"sym": random_symmetric_realization, "herm": random_hermitian_realization}


def _arrays(P):
    return P.X, P.Y, P.v, P.w


def _kept_arrays(R):
    """Every array a builder may copy or read from R and its transpose."""
    return [a for Q in (R, transpose_realization(R))
            for name in ("_c1", "_dl", "_dl_signed", "_coeff_rows") for a in vars(Q).get(name, ())]


def _companion_reference(R, second):
    """C1 or C2 as the general builders make them, from the companion free blocks."""
    m, n, k, r = R.m, R.n, R.k, R.r
    s = _companion_scale(R)
    args = (R, np.eye(m)[0], np.eye(k)[0], s * np.eye(m * n, (m - 1) * n, -n),
            s * np.eye(k * r, (k - 1) * r, -r))
    return build_pencil_L2(*args) if second else build_pencil_L1(*args)


@pytest.mark.parametrize("source", sorted(_BUILDERS))
def test_builders_return_fresh_copies_of_the_kept_pencil(source):
    build = _BUILDERS[source]
    R = _DATA.get(source, random_realization)(np.random.default_rng(61), 2, 3, 3, 2)
    first, second, other = build(R), build(R), build(same_data(R))
    kept = _kept_arrays(R)
    assert kept and not any(a.flags.writeable for a in kept)
    for a, b, c in zip(_arrays(first), _arrays(second), _arrays(other)):
        assert a.tobytes() == b.tobytes() == c.tobytes()
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
        assert not any(np.shares_memory(x, k) for x in (a, b) for k in kept)
    if source in ("c1", "c2"):
        ref = _companion_reference(R, source == "c2")
        for a, b in zip(_arrays(first), _arrays(ref)):
            assert a.tobytes() == b.tobytes() and a.flags.f_contiguous == b.flags.f_contiguous
    if source == "c2":  # the transpose of the transpose's C1, as build_pencil_L2 makes it
        assert first.X.flags.f_contiguous and first.Y.flags.f_contiguous
    for a in _arrays(first):
        a[...] = 7.0
    for a, b in zip(_arrays(build(R)), _arrays(second)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("space", ["sym", "herm"])
def test_structured_builds_of_unstructured_data_raise_and_keep_nothing(space):
    R = random_realization(np.random.default_rng(62), 2, 2, 2, 1)
    for _ in range(2):
        with pytest.raises(StructureError):
            _BUILDERS[space](R)
        with pytest.raises(StructureError):
            sample_space(R, 0, space)
    assert "_dl_signed" not in vars(R)


@pytest.mark.parametrize("kind", ["sym", "herm"])
def test_each_structure_test_scans_only_its_own_structure(kind):
    # asking for one structure flag, or building the member that needs it, never
    # computes the other
    for asked, kept, other in ((is_symmetric_realization, "_symmetric", "_hermitian"),
                               (is_hermitian_realization, "_hermitian", "_symmetric")):
        R = _DATA[kind](np.random.default_rng(64), 2, 3, 2, 2)
        assert asked(R) == (kept == {"sym": "_symmetric", "herm": "_hermitian"}[kind])
        assert kept in vars(R) and other not in vars(R)
    R = _DATA[kind](np.random.default_rng(64), 2, 3, 2, 2)
    _BUILDERS[kind](R)
    assert {"sym": "_hermitian", "herm": "_symmetric"}[kind] not in vars(R)


@pytest.mark.parametrize("space", ["dl", "sym", "herm"])
def test_sampling_a_one_dimensional_space_scales_the_built_pencil(space, monkeypatch):
    from syspencils.spaces import AnsatzPencil

    R = _DATA.get(space, random_realization)(np.random.default_rng(63), 3, 2, 2, 2)
    sample_space(R, 0, space)  # R keeps its pencil from here on
    check = AnsatzPencil.__post_init__
    built = []
    monkeypatch.setattr(AnsatzPencil, "__post_init__",
                        lambda P: (built.append(P.space), check(P))[-1])
    for seed in range(10):
        built.clear()
        P = sample_space(R, seed, space)
        assert built == [space]  # one validated construction per member
        rng = np.random.default_rng(seed)
        alpha = complex(rng.standard_normal())
        if space != "herm":
            alpha += 1j * rng.standard_normal()
        built_fresh = _BUILDERS[space](same_data(R))
        for a, b in zip(_arrays(P), _arrays(built_fresh)):
            assert a.tobytes() == (alpha * b).tobytes()
