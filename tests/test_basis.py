import itertools

import numpy as np
import pytest
from conftest import cgauss, random_realization

from syspencils import (
    BasisSpec,
    DimensionError,
    SingularBasis,
    build_C1,
    build_L1_tilde,
    build_pencil_L1,
    lambda_vector,
    match_multisets,
    membership,
    nonpole_samples,
    phi_matrix,
    residual_tilde,
    solve_pencil,
    tilde_to_monomial,
)


def test_phi_matrix_monomial():
    Phi = phi_matrix(BasisSpec(kind="monomial", d=3))
    assert np.array_equal(Phi.real, np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))


def test_phi_matrix_chebyshev():
    Phi = phi_matrix(BasisSpec(kind="chebyshev_T", d=3))
    assert np.allclose(Phi, np.array([[0, 0, 1], [0, 1, 0], [2, 0, -1]]))


def test_phi_matrix_newton():
    Phi = phi_matrix(BasisSpec(kind="newton", d=3, nodes=(0.0, 1.0)))
    assert np.allclose(Phi, np.array([[0, 0, 1], [0, 1, 0], [1, -1, 0]]))


def test_newton_duplicate_nodes_rejected():
    with pytest.raises(SingularBasis):
        phi_matrix(BasisSpec(kind="newton", d=3, nodes=(1.0, 1.0)))
    with pytest.raises(DimensionError):
        BasisSpec(kind="newton", d=3, nodes=(1.0,))


def test_rank_deficient_custom_basis_rejected():
    with pytest.raises(SingularBasis):
        phi_matrix(BasisSpec(kind="custom", d=3, rows=[[1, 0, 0], [0, 1, 0], [1, 1, 0]]))


def _phi_values(spec, lam):
    # evaluate the basis polynomials directly, independent of phi_matrix
    if spec.kind == "monomial":
        return np.array([lam**j for j in range(spec.d)])
    if spec.kind == "chebyshev_T":
        vals = [1.0 + 0j, lam]
        while len(vals) < spec.d:
            vals.append(2 * lam * vals[-1] - vals[-2])
        return np.array(vals[: spec.d])
    vals = [1.0 + 0j]
    for node in spec.nodes:
        vals.append(vals[-1] * (lam - node))
    return np.array(vals[: spec.d])


def test_phi_identity_to_degree_eight():
    rng = np.random.default_rng(0)
    for d in range(1, 9):
        nodes = tuple(cgauss(rng, max(d - 1, 0)))
        for spec in (BasisSpec(kind="monomial", d=d),
                     BasisSpec(kind="chebyshev_T", d=d),
                     BasisSpec(kind="newton", d=d, nodes=nodes)):
            Phi = phi_matrix(spec)
            for _ in range(10):
                lam = complex(cgauss(rng)) / 2
                got = Phi @ lambda_vector(d, lam)
                assert np.max(np.abs(got - _phi_values(spec, lam))) < 1e-12


def test_monomial_round_trip_is_identity():
    # the monomial Phi is a permutation, so the tilde and monomial builders
    # compose to a net identity
    rng = np.random.default_rng(1)
    R = random_realization(rng, 3, 2, 2, 1)
    v, w = cgauss(rng, 3), cgauss(rng, 2)
    W, W1 = cgauss(rng, 6, 4), cgauss(rng, 2, 1)
    specA = BasisSpec(kind="monomial", d=3)
    specD = BasisSpec(kind="monomial", d=2)
    Pt = build_L1_tilde(R, specA, specD, v, w, W, W1)
    Pm = tilde_to_monomial(Pt, specA, specD)
    P = build_pencil_L1(R, v, w, W, W1)
    assert np.allclose(Pm.X, P.X, atol=1e-14)
    assert np.allclose(Pm.Y, P.Y, atol=1e-14)


def test_chebyshev_tilde_identity_on_companion_ansatz():
    rng = np.random.default_rng(2)
    R = random_realization(rng, 3, 2, 2, 1)
    C1 = build_C1(R)
    specA = BasisSpec(kind="chebyshev_T", d=3)
    specD = BasisSpec(kind="chebyshev_T", d=2)
    t = C1.dims.top  # the free blocks sit in X beside the ansatz columns
    Pt = build_L1_tilde(R, specA, specD, C1.v, C1.w, C1.X[:t, R.n:t], C1.X[t:, t + R.r:])
    samples = nonpole_samples(R, 20, seed=3)
    assert residual_tilde(Pt, R, specA, specD, samples) < 1e-10
    # mapping back lands in the monomial space with the companion ansatz
    Pm = tilde_to_monomial(Pt, specA, specD)
    v, w = membership(Pm.X, Pm.Y, R)
    assert np.allclose(v, np.eye(3)[0], atol=1e-10)
    assert np.allclose(w, np.eye(2)[0], atol=1e-10)


def _dense_transform(Phi, Psi, n, r):
    """The dense reference ``blockdiag(Phi kron I_n, Psi kron I_r)``."""
    m, k = Phi.shape[0], Psi.shape[0]
    T = np.zeros((m * n + k * r, m * n + k * r), dtype=complex)
    T[: m * n, : m * n] = np.kron(Phi, np.eye(n))
    T[m * n:, m * n:] = np.kron(Psi, np.eye(r))
    return T


@pytest.mark.parametrize("kind", ["chebyshev_T", "newton"])
def test_block_transform_equals_the_dense_kronecker_product(kind):
    # both directions: from the monomial form (Phi^{-1}) and back to it (Phi)
    rng = np.random.default_rng(11)
    for m, n, k, r in itertools.product(range(1, 5), range(1, 4), range(1, 5), range(1, 4)):
        specA, specD = (BasisSpec(kind=kind, d=d, nodes=tuple(cgauss(rng, d - 1))
                                  if kind == "newton" else ()) for d in (m, k))
        R = random_realization(rng, m, n, k, r)
        args = (cgauss(rng, m), cgauss(rng, k), cgauss(rng, m * n, (m - 1) * n),
                cgauss(rng, k * r, (k - 1) * r))
        Phi, Psi = phi_matrix(specA), phi_matrix(specD)
        P = build_pencil_L1(R, *args)
        Pt = build_L1_tilde(R, specA, specD, *args)
        Pm = tilde_to_monomial(Pt, specA, specD)
        for got, source, T in (
                (Pt, P, _dense_transform(np.linalg.inv(Phi), np.linalg.inv(Psi), n, r)),
                (Pm, Pt, _dense_transform(Phi, Psi, n, r))):
            for G, S in ((got.X, source.X), (got.Y, source.Y)):
                ref = S @ T
                assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_round_trip_and_spectrum_preservation():
    rng = np.random.default_rng(4)
    R = random_realization(rng, 2, 2, 3, 2)
    v, w = cgauss(rng, 2), cgauss(rng, 3)
    W, W1 = cgauss(rng, 4, 2), cgauss(rng, 6, 4)
    specA = BasisSpec(kind="chebyshev_T", d=2)
    specD = BasisSpec(kind="newton", d=3, nodes=tuple(cgauss(rng, 2)))
    Pt = build_L1_tilde(R, specA, specD, v, w, W, W1)
    Pm = tilde_to_monomial(Pt, specA, specD)
    P = build_pencil_L1(R, v, w, W, W1)
    assert np.max(np.abs(Pm.X - P.X)) < 1e-13 * max(1, np.abs(P.X).max())
    assert np.max(np.abs(Pm.Y - P.Y)) < 1e-13 * max(1, np.abs(P.Y).max())
    e_t = solve_pencil(Pt.X, Pt.Y).eigenvalues
    e_m = solve_pencil(Pm.X, Pm.Y).eigenvalues
    assert e_t.size == e_m.size
    _, worst = match_multisets(e_t, e_m)
    assert worst < 1e-8


def test_tilde_rejects_wrong_degree():
    rng = np.random.default_rng(5)
    R = random_realization(rng, 2, 2, 2, 1)
    with pytest.raises(DimensionError):
        build_L1_tilde(R, BasisSpec(kind="monomial", d=3),
                       BasisSpec(kind="monomial", d=2), cgauss(rng, 2), cgauss(rng, 2))
