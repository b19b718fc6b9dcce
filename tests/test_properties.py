"""Property tests: bit-exact JSON round trips, a CLI that never crashes and
the ansatz-space invariants (membership round trips, transpose duality,
residuals of double-ansatz members, the lift identities and recovery on
both sides) over generated realizations."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from conftest import scaled_realization  # noqa: E402
from oracles import largest_bottom_block_x  # noqa: E402

from syspencils import (  # noqa: E402
    BlockDims,
    DegenerateVector,
    MatrixPolynomial,
    PoleError,
    Realization,
    SingularSystem,
    build_C1,
    build_C2,
    build_DL,
    build_hermitian,
    build_pencil_L1,
    build_pencil_L2,
    build_symmetric,
    eval_polymat,
    eval_transfer,
    lift_left,
    lift_right,
    membership,
    nonpole_samples,
    recover_left,
    recover_right,
    residual_ansatz,
    sample_space,
    solve_pencil,
    transpose_realization,
)
from syspencils.cli import main  # noqa: E402
from syspencils.io import (  # noqa: E402
    decode_matrix,
    encode_matrix,
    encode_vector,
    load_pencil,
    pencil_to_dict,
    problem_to_dict,
    save_json,
)
from syspencils.spaces import SPACE_L1G, SPACE_L1S, SPACE_L2G, AnsatzPencil  # noqa: E402
from syspencils.spectra import default_tol_res  # noqa: E402

#: Signed zeros, subnormals and extreme exponents, mixed with any finite float.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
          1.7976931348623157e308, -1.7976931348623157e308]
finite_floats = st.one_of(st.sampled_from(_EDGES),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def complex_arrays(draw, rows, cols):
    parts = draw(st.lists(finite_floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(complex).reshape(rows, cols)


def _bits(a):
    return np.asarray(a, dtype=complex).view(np.int64)


@given(st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(lambda cols: complex_arrays(rows, cols))))
def test_matrix_codec_round_trip_bit_exact(M):
    again = decode_matrix(json.loads(json.dumps(encode_matrix(M))))
    assert np.array_equal(_bits(again), _bits(M))


@st.composite
def pencils(draw):
    dims = BlockDims(*draw(st.tuples(*[st.integers(1, 2)] * 4)))
    s = dims.size
    return AnsatzPencil(X=draw(complex_arrays(s, s)), Y=draw(complex_arrays(s, s)),
                        dims=dims, space=SPACE_L1G, v=draw(complex_arrays(1, dims.m)),
                        w=draw(complex_arrays(1, dims.k)))


@settings(max_examples=50)
@given(pencils())
def test_pencil_file_round_trip_bit_exact(P):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        save_json(path, pencil_to_dict(P))
        with open(path, encoding="utf-8") as fh:
            assert fh.read().count("\n") == 1  # compact: one line
        Q = load_pencil(path)
    for name in ("X", "Y", "v", "w"):
        assert np.array_equal(_bits(getattr(Q, name)), _bits(getattr(P, name)))
    assert Q.dims == P.dims and Q.space == P.space


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


def _mutate(data, node):
    """A copy of ``node`` with one subtree replaced by a random JSON tree."""
    if not isinstance(node, (list, dict)) or not node or data.draw(st.booleans()):
        return data.draw(json_trees)
    key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                    else range(len(node))))
    out = copy.copy(node)
    if isinstance(out, dict) and data.draw(st.booleans()):
        del out[key]
    else:
        out[key] = _mutate(data, node[key])
    return out


_R = Realization(A=MatrixPolynomial.from_scalars(1, 0, 1), B=np.array([[1.0]]),
                 C=np.array([[1.0]]), D=MatrixPolynomial.from_scalars(0, 1))
_PROBLEM = problem_to_dict(_R, {"ansatz": {"v": encode_vector([1.0, 0.0]),
                                           "w": encode_vector([1.0])}})
_PENCIL = pencil_to_dict(build_C1(_R))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.data())
def test_cli_survives_fuzzed_files(data):
    verb = data.draw(st.sampled_from(["build", "verify", "solve"]))
    whole = data.draw(st.booleans())  # a whole random tree, or one subtree replaced
    fuzz_problem = verb == "build" or data.draw(st.booleans())
    problem, pencil = _PROBLEM, _PENCIL
    if fuzz_problem:
        problem = data.draw(json_trees) if whole else _mutate(data, _PROBLEM)
    else:
        pencil = data.draw(json_trees) if whole else _mutate(data, _PENCIL)
    with tempfile.TemporaryDirectory() as tmp:
        prob, pen = os.path.join(tmp, "p.json"), os.path.join(tmp, "c1.json")
        for path, obj in ((prob, problem), (pen, pencil)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        if verb == "build":
            source = data.draw(st.sampled_from(["c1", "c2", "dl", "sym", "explicit"]))
            argv = ["build", "--input", prob, "--output", os.path.join(tmp, "x.json"),
                    "--source", source]
        else:
            argv = [verb, "--pencil", pen, "--input", prob]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
    assert code in (0, 1, 2, 3), out.getvalue()


def _realization(dims, zero, seed, kind="general", spread=0.0):
    """Gaussian data of block sizes ``dims``; ``zero`` names a vanishing B or C.

    Symmetric and Hermitian data tie C to B, so either choice zeroes both.  With a
    ``spread`` s, each of A_j, B, C and D_j is scaled by its own 10^U(-s, s).
    """
    m, n, k, r = dims
    rng = np.random.default_rng(seed)

    def cg(*shape):
        scale = 10.0 ** rng.uniform(-spread, spread) if spread else 1.0
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale

    op = {"general": None, "sym": np.transpose, "herm": lambda M: M.conj().T}[kind]
    A = [cg(n, n) for _ in range(m + 1)]
    D = [cg(r, r) for _ in range(k + 1)]
    B = np.zeros((n, r)) if zero == "B" else cg(n, r)
    C = np.zeros((r, n)) if zero == "C" else cg(r, n)
    if op is not None:
        A = [(M + op(M)) / 2 for M in A]
        D = [(M + op(M)) / 2 for M in D]
        B = np.zeros((n, r)) if zero else B
        C = op(B)
    return Realization(A=MatrixPolynomial(tuple(A)), B=B, C=C, D=MatrixPolynomial(tuple(D)))


dims_st = st.tuples(*[st.integers(1, 3)] * 4)
zero_st = st.sampled_from([None, "B", "C"])
seed_st = st.integers(0, 2**32 - 1)
_FAST = settings(max_examples=40, deadline=None)


@_FAST
@given(dims_st, zero_st, seed_st, st.sampled_from([SPACE_L1G, SPACE_L1S, SPACE_L2G]))
@example((1, 1, 3, 2), "B", 0, SPACE_L2G)  # r > n, m != k
@example((3, 2, 1, 1), "C", 1, SPACE_L1S)
def test_membership_recovers_the_ansatz_pair(dims, zero, seed, space):
    m, n, k, r = dims
    assume(space != SPACE_L1S or r <= n)  # the system-matrix identity needs r <= n
    R = _realization(dims, zero, seed)
    rng = np.random.default_rng(seed + 1)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    W = rng.standard_normal((m * n, (m - 1) * n)) if m > 1 else None
    W1 = rng.standard_normal((k * r, (k - 1) * r)) if k > 1 else None
    if space == SPACE_L2G:
        P = build_pencil_L2(R, v, w, W, W1)
    else:
        P = build_pencil_L1(R, v, w, W, W1, space)
    got_v, got_w = membership(P.X, P.Y, R, space)
    assert np.allclose(got_v, v, rtol=1e-10, atol=1e-12)
    assert np.allclose(got_w, w, rtol=1e-10, atol=1e-12)


@_FAST
@given(dims_st, zero_st, seed_st)
@example((2, 1, 1, 3), "C", 2)  # r > n, m != k
def test_second_space_member_transposes_into_the_first_space(dims, zero, seed):
    R = _realization(dims, zero, seed)
    P = sample_space(R, seed, SPACE_L2G)
    Rt = transpose_realization(R)
    got_v, got_w = membership(P.X.T, P.Y.T, Rt, SPACE_L1G)
    assert np.allclose(got_v, P.v, rtol=1e-10, atol=1e-12)
    assert np.allclose(got_w, P.w, rtol=1e-10, atol=1e-12)
    first = AnsatzPencil(X=P.X.T, Y=P.Y.T, dims=R.dims, space=SPACE_L1G, v=P.v, w=P.w)
    samples = nonpole_samples(R, 4, seed=seed % 1000)
    tol = default_tol_res(P, R)  # the default of verify_linearization
    assert residual_ansatz(first, Rt, samples) <= tol
    assert residual_ansatz(P, R, samples) <= tol


@_FAST
@given(dims_st, zero_st, seed_st, st.sampled_from(["dl", "sym", "herm"]))
@example((1, 2, 3, 3), "B", 3, "dl")  # r > n, m != k
@example((3, 1, 2, 2), None, 4, "herm")
def test_double_ansatz_residual_within_tolerance_and_perturbation_exceeds_it(
        dims, zero, seed, space):
    R = _realization(dims, zero, seed, kind={"dl": "general"}.get(space, space))
    P = sample_space(R, seed, space)
    samples = nonpole_samples(R, 4, seed=seed % 1000)
    tol = default_tol_res(P, R)  # the default of verify_linearization
    assert residual_ansatz(P, R, samples) <= tol
    rng = np.random.default_rng(seed + 2)
    noise = rng.standard_normal(P.Y.shape) * 1e-6 * np.max(np.abs(P.Y))
    bad = AnsatzPencil(X=P.X, Y=P.Y + noise, dims=P.dims, space=space, v=P.v, w=P.w)
    assert residual_ansatz(bad, R, samples) > tol


@_FAST
@given(dims_st, zero_st, seed_st, st.sampled_from(["sym", "herm"]), st.booleans())
@example((2, 2, 2, 1), None, 8, "sym", False)  # B != 0: the off-diagonal blocks count
@example((3, 1, 2, 2), None, 9, "herm", True)
def test_structured_members_transpose_into_the_first_space_of_the_unsigned_transpose(
        dims, zero, seed, kind, sampled):
    # membership's argument for sym and herm: elementwise structure plus first-space
    # membership put (X^T, Y^T) in the first space, with the pair (e_m, -e_k) times the
    # member's real or complex scale, of (A^T, C^T, B^T, D^T) = R (symmetric) or conj(R)
    R = _realization(dims, zero, seed, kind)
    build = {"sym": build_symmetric, "herm": build_hermitian}[kind]
    P = sample_space(R, seed, kind) if sampled else build(R)
    v, w = membership(P.X, P.Y, R, kind)
    alpha = P.v[-1]
    assert np.allclose(v, alpha * np.eye(R.m)[-1], rtol=1e-10, atol=1e-12)
    assert np.allclose(w, -alpha * np.eye(R.k)[-1], rtol=1e-10, atol=1e-12)
    unsigned = Realization(A=R.A.transpose(), B=R.C.T, C=R.B.T, D=R.D.transpose())
    op = np.asarray if kind == "sym" else np.conj
    for got, want in ((unsigned.A.coeffs, R.A.coeffs), (unsigned.D.coeffs, R.D.coeffs),
                      ((unsigned.B, unsigned.C), (R.B, R.C))):
        assert all(np.allclose(g, op(x), rtol=0, atol=1e-12) for g, x in zip(got, want))
    got_v, got_w = membership(P.X.T, P.Y.T, unsigned, SPACE_L1G)
    assert np.allclose(got_v, op(v), rtol=1e-10, atol=1e-12)
    assert np.allclose(got_w, op(w), rtol=1e-10, atol=1e-12)


_MEMBERS = {"c1": build_C1, "c2": build_C2, "dl": build_DL}


@_FAST
@given(dims_st, zero_st, seed_st, st.sampled_from(["c1", "l1g", "dl", "c2", "l2g"]))
@example((1, 1, 3, 2), "B", 5, "c2")  # r > n, m != k
@example((2, 1, 1, 3), "C", 6, "l2g")
@example((3, 1, 2, 2), "B", 7, "l1g")
def test_lift_identities_hold_and_recovery_inverts_the_lift(dims, zero, seed, source):
    # first space: P(lam) lift_right(x) = [0 ; w kron G(lam) x]; second space:
    # lift_left(y)* P(lam) = [0 | z^T kron y* G(lam)], with the pair membership reads
    R = _realization(dims, zero, seed)
    P = _MEMBERS[source](R) if source in _MEMBERS else sample_space(R, seed, source)
    rng = np.random.default_rng(seed + 3)
    x = rng.standard_normal(R.r) + 1j * rng.standard_normal(R.r)
    lam = nonpole_samples(R, 1, seed=seed % 1000)[0]
    G, L = eval_transfer(R, lam), P(lam)
    _, w = membership(P.X, P.Y, R, P.space)  # z of the left pair (s, z) in the second space
    if P.space == SPACE_L2G:
        u = lift_left(R, x, lam)
        got, want, rec = u.conj() @ L, np.kron(w, x.conj() @ G), recover_left(u, R.dims, R, lam)
    else:
        u = lift_right(R, x, lam)
        got, want, rec = L @ u, np.kron(w, G @ x), recover_right(u, R.dims, R, lam)
    scale = np.linalg.norm(L) * np.linalg.norm(u)
    assert np.linalg.norm(got[:R.dims.top]) <= 1e-10 * scale
    assert np.linalg.norm(got[R.dims.top:] - want) <= 1e-10 * scale
    xn = x / np.linalg.norm(x)
    phase = np.vdot(rec.x, xn)
    assert np.linalg.norm(rec.x * phase / abs(phase) - xn) <= 1e-10
    assert rec.structural_residual <= 1e-10 * np.linalg.norm(u)
    Gx = xn.conj() @ G if P.space == SPACE_L2G else G @ xn
    assert abs(rec.transfer_residual - np.linalg.norm(Gx)) <= 1e-10 * np.linalg.norm(G)


_RECOVERY_SIDES = {"c1": ("right",), "l1g": ("right",), "l1s": ("right",), "sym": ("right",),
                   "herm": ("right",), "dl": ("right", "left"), "c2": ("left",),
                   "l2g": ("left",)}
_BUILDERS = {**_MEMBERS, "sym": build_symmetric, "herm": build_hermitian}


@_FAST
@given(dims_st, zero_st, seed_st, st.sampled_from(sorted(_RECOVERY_SIDES)), st.booleans())
@example((1, 1, 3, 2), "B", 10, "c2", True)  # r > n, m != k
@example((2, 1, 1, 3), "C", 11, "dl", True)
@example((3, 2, 1, 1), None, 12, "l1s", True)
@example((2, 2, 3, 1), None, 13, "herm", False)
def test_recovery_reads_x_as_before_and_f_with_a_small_system_residual(
        dims, zero, seed, space, spread):
    # x is the largest bottom block's, bit for bit; [F; x], F read from the top
    # partition, is a null vector of S(lambda) to backward error 1e-12 at any uniform
    # data scale; that backward error moves by rounding alone when the data are
    # scaled; and the transfer residual, read later, is ||G(lambda) x||.  With each
    # matrix at its own scale 10^U(-4, 4) a pencil eigenpair need not be backward
    # stable for S: 2-7% of such pairs read above 1e-12 per space, and F = A^{-1} B x
    # from a solve did so about twice as often
    m, n, k, r = dims
    assume(space != SPACE_L1S or r <= n)  # the system-matrix identity needs r <= n
    R = _realization(dims, zero, seed, {"sym": "sym", "herm": "herm"}.get(space, "general"),
                     spread=4.0 if spread else 0.0)
    P = _BUILDERS[space](R) if space in _BUILDERS else sample_space(R, seed, space)
    try:
        eigs = solve_pencil(P.X, P.Y)
    except SingularSystem:  # the shift search can call a regular pencil at this spread singular
        assume(False)
    scaled = [scaled_realization(R, c) for c in (1e-20, 1e-7, 1e7, 1e20)]
    rng = np.random.default_rng(seed + 4)
    for side in _RECOVERY_SIDES[space]:
        recover, vecs = (recover_left, eigs.left) if side == "left" else (recover_right, eigs.right)
        for i, lam in enumerate(eigs.eigenvalues):
            u = vecs[:, i]
            try:
                rec = recover(u, R.dims, R, lam)
            except DegenerateVector:  # a null vector of S with x = 0: G has no zero here
                continue
            x = largest_bottom_block_x(np.conj(u) if side == "left" else u, R.dims, lam)
            assert rec.x.tobytes() == (np.conj(x) if side == "left" else x).tobytes()
            assert spread or rec.system_residual <= 1e-12, (side, i, lam, rec.system_residual)
            for Rc in scaled:
                assert abs(recover(u, R.dims, Rc, lam).system_residual - rec.system_residual) <= 1e-14
            # the left side solves with A^T, as recovery on the transpose does
            Rs = transpose_realization(R) if side == "left" else R
            try:
                G = eval_transfer(Rs, lam)
            except PoleError:  # the pole guard's verdict, which the lazy read shares
                assert math.isnan(rec.transfer_residual)
                continue
            Gx = G @ (rec.x.conj() if side == "left" else rec.x)
            # both values carry the rounding of a solve with A(lambda)
            A, D = eval_polymat(Rs.A, lam), eval_polymat(Rs.D, lam)
            A_inv = np.linalg.inv(A)
            error = (np.linalg.cond(A) * np.linalg.norm(Rs.C, 2) * np.linalg.norm(A_inv, 2)
                     * np.linalg.norm(Rs.B, 2) + np.linalg.norm(D, 2))
            assert abs(rec.transfer_residual - np.linalg.norm(Gx)) <= 1e-12 * error
        # away from the spectrum the residual is O(1): the same to 1e-12 at every scale
        lam = complex(rng.standard_normal(), rng.standard_normal())
        u = rng.standard_normal(R.dims.size) + 1j * rng.standard_normal(R.dims.size)
        eta = recover(u, R.dims, R, lam).system_residual
        for Rc in scaled:
            assert abs(recover(u, R.dims, Rc, lam).system_residual - eta) <= 1e-12 * eta
