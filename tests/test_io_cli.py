import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import (
    badly_scaled_l2g_member,
    cgauss,
    random_hermitian_realization,
    random_realization,
    random_symmetric_realization,
)
from oracles import qz_eigvals

from syspencils import (
    AnsatzPencil,
    BasisSpec,
    MatrixPolynomial,
    PoleError,
    Realization,
    build_C1,
    build_C2,
    build_DL,
    build_hermitian,
    build_L1_tilde,
    build_pencil_L1,
    build_pencil_L2,
    build_symmetric,
    eval_transfer,
    nonpole_samples,
    recover_right,
    residual_ansatz,
    solve_pencil,
    tilde_to_monomial,
    verify_linearization,
)
from syspencils import errors
from syspencils.cli import main
from syspencils.io import (
    decode_matrix,
    encode_matrix,
    encode_vector,
    load_pencil,
    load_problem,
    pencil_from_dict,
    pencil_to_dict,
    problem_from_dict,
    problem_to_dict,
    save_json,
    save_pencil,
)


def _r1():
    return Realization(A=MatrixPolynomial.from_scalars(-2, 1), B=np.array([[1.0]]),
                       C=np.array([[1.0]]), D=MatrixPolynomial.from_scalars(0, 1))


def _r2():
    return Realization(A=MatrixPolynomial.from_scalars(1, 0, 1), B=np.array([[1.0]]),
                       C=np.array([[1.0]]), D=MatrixPolynomial.from_scalars(0, 1))


def _write_problem(path, R, options=None):
    save_json(path, problem_to_dict(R, options))


def _transfer_residuals(out, R):
    """``||G(lambda) x||`` of each right eigenvector a ``solve`` report prints (None for null)."""
    return [None if vec is None else float(np.linalg.norm(
        eval_transfer(R, complex(*lam)) @ np.array([complex(re, im) for re, im in vec])))
        for lam, vec in zip(out["eigenvalues"], out["eigenvectors"])]


def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    M = cgauss(rng, 3, 4)
    again = decode_matrix(json.loads(json.dumps(encode_matrix(M))))
    assert np.array_equal(M, again)


def test_problem_and_pencil_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    R = random_realization(rng, 2, 2, 2, 1)
    obj = problem_to_dict(R, {"seed": 3})
    R2, options = problem_from_dict(json.loads(json.dumps(obj)))
    assert options == {"seed": 3}
    for c1, c2 in zip(R.A.coeffs, R2.A.coeffs):
        assert np.array_equal(c1, c2)
    assert np.array_equal(R.B, R2.B)
    P = build_C1(R)
    P2 = pencil_from_dict(json.loads(json.dumps(pencil_to_dict(P))))
    assert np.array_equal(P.X, P2.X) and np.array_equal(P.Y, P2.Y)
    assert P2.space == P.space and P2.dims == P.dims


def test_format_field_required():
    with pytest.raises(ValueError):
        problem_from_dict({"realization": {}})


@pytest.mark.parametrize("version", [True, 1.0])
def test_format_must_be_the_integer_1(version):
    obj = problem_to_dict(_r1())
    obj["format"] = version  # both compare equal to 1
    with pytest.raises(ValueError, match="format"):
        problem_from_dict(obj)


def test_cli_build_and_verify_c1(tmp_path, capsys):
    prob = tmp_path / "r1.json"
    pen = tmp_path / "c1.json"
    _write_problem(prob, _r1())
    assert main(["build", "--input", str(prob), "--output", str(pen),
                 "--source", "c1"]) == 0
    P = load_pencil(pen)
    C1 = build_C1(_r1())
    assert np.array_equal(P.X, C1.X) and np.array_equal(P.Y, C1.Y)
    assert main(["verify", "--pencil", str(pen), "--input", str(prob)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert report["max_eig_error"] <= 1e-8


def test_cli_verify_ignores_a_stale_stored_pair(tmp_path, capsys):
    # X and Y are a valid C1; the file's "w" is not its pair
    R = random_realization(np.random.default_rng(7), 3, 4, 2, 3)
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, R)
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", "c1"]) == 0
    data = json.loads(pen.read_text())
    data["w"] = encode_vector([3.0, 0.0])
    pen.write_text(json.dumps(data))
    assert main(["verify", "--pencil", str(pen), "--input", str(prob)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_cli_dl_equals_c1_for_scalar(tmp_path):
    prob = tmp_path / "r1.json"
    _write_problem(prob, _r1())
    pen1, pen2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "--input", str(prob), "--output", str(pen1), "--source", "c1"]) == 0
    assert main(["build", "--input", str(prob), "--output", str(pen2), "--source", "dl"]) == 0
    Pa, Pb = load_pencil(pen1), load_pencil(pen2)
    assert np.array_equal(Pa.X, Pb.X) and np.array_equal(Pa.Y, Pb.Y)


def test_cli_symmetric_source_rejects_asymmetric(tmp_path, capsys):
    rng = np.random.default_rng(2)
    prob = tmp_path / "p.json"
    _write_problem(prob, random_realization(rng, 2, 2, 2, 1))
    code = main(["build", "--input", str(prob), "--output", str(tmp_path / "s.json"),
                 "--source", "sym"])
    assert code == 3
    assert "realization is not symmetric" in capsys.readouterr().err


def test_cli_symmetric_source_works(tmp_path):
    rng = np.random.default_rng(3)
    prob = tmp_path / "p.json"
    _write_problem(prob, random_symmetric_realization(rng, 2, 2, 2, 1))
    assert main(["build", "--input", str(prob), "--output", str(tmp_path / "s.json"),
                 "--source", "sym"]) == 0
    P = load_pencil(tmp_path / "s.json")
    assert np.max(np.abs(P.X - P.X.T)) < 1e-14


def test_cli_explicit_source(tmp_path, capsys):
    rng = np.random.default_rng(4)
    R = random_realization(rng, 2, 2, 2, 1)
    from syspencils.io import encode_matrix as em, encode_vector as ev

    v, w = cgauss(rng, 2), cgauss(rng, 2)
    W, W1 = cgauss(rng, 4, 2), cgauss(rng, 2, 1)
    options = {"ansatz": {"v": ev(v), "w": ev(w), "W": em(W), "W1": em(W1)}}
    prob = tmp_path / "p.json"
    _write_problem(prob, R, options)
    pen = tmp_path / "e.json"
    assert main(["build", "--input", str(prob), "--output", str(pen),
                 "--source", "explicit"]) == 0
    assert main(["verify", "--pencil", str(pen), "--input", str(prob)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_cli_verify_fails_for_singular_leading_coefficient(tmp_path, capsys):
    rng = np.random.default_rng(5)
    R = random_realization(rng, 2, 2, 2, 1)
    Rz = Realization(A=MatrixPolynomial((R.A.coeffs[0], R.A.coeffs[1],
                                         np.zeros((2, 2)))),
                     B=R.B, C=R.C, D=R.D)
    prob = tmp_path / "p.json"
    _write_problem(prob, Rz)
    pen = tmp_path / "dl.json"
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", "dl"]) == 0
    assert main(["verify", "--pencil", str(pen), "--input", str(prob)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"


def test_cli_solve_r1_double_root(tmp_path, capsys):
    prob = tmp_path / "r1.json"
    pen = tmp_path / "c1.json"
    _write_problem(prob, _r1())
    main(["build", "--input", str(prob), "--output", str(pen), "--source", "c1"])
    assert main(["solve", "--pencil", str(pen), "--input", str(prob)]) == 0
    out = json.loads(capsys.readouterr().out)
    eigs = np.array([complex(re, im) for re, im in out["eigenvalues"]])
    assert eigs.size == 2
    assert np.max(np.abs(eigs - 1.0)) < 1e-6  # double root at 1
    assert all(res is not None and res < 1e-6 for res in _transfer_residuals(out, _r1()))


def test_cli_verify_strict(tmp_path, capsys):
    prob = tmp_path / "r1.json"
    pen = tmp_path / "c1.json"
    _write_problem(prob, _r1())
    main(["build", "--input", str(prob), "--output", str(pen), "--source", "c1"])
    assert main(["verify", "--pencil", str(pen), "--input", str(prob),
                 "--strict"]) == 0
    capsys.readouterr()


def test_cli_verify_strict_halves_the_default_residual_tolerance(tmp_path):
    # A = lambda^2 - 2, B = C = 1, D = lambda + 0.5: data scale 2, so the
    # default ansatz-residual tolerance is 3e-10 and --strict makes it 1.5e-10
    R = Realization(A=MatrixPolynomial.from_scalars(-2, 0, 1), B=np.array([[1.0]]),
                    C=np.array([[1.0]]), D=MatrixPolynomial.from_scalars(0.5, 1))
    P = build_C1(R)
    samples = nonpole_samples(R, 10)  # the sample points verify uses

    def perturbed(delta):
        Y = P.Y.copy()
        Y[0, 0] += delta
        return AnsatzPencil(X=P.X, Y=Y, dims=P.dims, space=P.space, v=P.v, w=P.w)

    # the residual is linear in the perturbation; aim between the two tolerances
    delta = 2.25e-10 / residual_ansatz(perturbed(1.0), R, samples)
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, R)
    save_json(pen, pencil_to_dict(perturbed(delta)))
    plain = _run_cli("verify", "--pencil", str(pen), "--input", str(prob))
    strict = _run_cli("verify", "--pencil", str(pen), "--input", str(prob), "--strict")
    assert plain.returncode == 0, plain.stdout + plain.stderr
    report = json.loads(strict.stdout)
    assert 1.5e-10 < report["ansatz_residual"] < 3e-10
    assert strict.returncode == 1 and report["reason"].startswith("ansatz residual")


def test_cli_solve_r2(tmp_path, capsys):
    prob = tmp_path / "r2.json"
    pen = tmp_path / "c1.json"
    _write_problem(prob, _r2())
    main(["build", "--input", str(prob), "--output", str(pen), "--source", "c1"])
    assert main(["solve", "--pencil", str(pen), "--input", str(prob)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["eigenvalues"]) == 3
    eigs = np.array([complex(re, im) for re, im in out["eigenvalues"]])
    for lam in eigs:
        assert abs(lam**3 + lam + 1) < 1e-8
    assert all(res is not None and res < 1e-8 for res in _transfer_residuals(out, _r2()))


def test_cli_truncated_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 1, "realization": {"A"')
    assert main(["verify", "--pencil", str(bad), "--input", str(bad)]) == 2
    assert main(["solve", "--pencil", str(bad), "--input", str(bad)]) == 2
    assert main(["build", "--input", str(bad), "--output", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: Expecting") for line in err)


def test_cli_sample_deterministic(tmp_path, capsys):
    prob = tmp_path / "r1.json"
    _write_problem(prob, _r1())
    assert main(["sample", "--input", str(prob), "--count", "10", "--seed", "11",
                 "--output", str(tmp_path / "smp")]) == 0
    out1 = capsys.readouterr().out
    summary = json.loads(out1)
    assert summary["count"] == 10
    assert summary["pass_rate"] == 1.0
    files = sorted(tmp_path.glob("smp_*.json"))
    assert len(files) == 10
    assert main(["sample", "--input", str(prob), "--count", "10", "--seed", "11"]) == 0
    assert json.loads(capsys.readouterr().out) == summary


def test_cli_sample_empty(tmp_path, capsys):
    prob = tmp_path / "r1.json"
    _write_problem(prob, _r1())
    assert main(["sample", "--input", str(prob), "--count", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["pass_rate"] is None


def test_cli_verify_reads_the_z_rank_certificate_and_sample_does_not(tmp_path, capsys,
                                                                     monkeypatch):
    import syspencils.spectra as spectra

    calls, z_rank = [], spectra.z_rank
    monkeypatch.setattr(spectra, "z_rank", lambda *a: calls.append(a) or z_rank(*a))
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, random_realization(np.random.default_rng(9), 2, 3, 2, 2))
    assert main(["sample", "--input", str(prob), "--count", "5", "--space", "l1g"]) == 0
    assert json.loads(capsys.readouterr().out)["pass_rate"] == 1.0
    assert calls == []  # sample reads the verdicts alone
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", "c1"]) == 0
    assert main(["verify", "--pencil", str(pen), "--input", str(prob)]) == 0
    assert json.loads(capsys.readouterr().out)["full_z_rank"] == [True, True]
    assert len(calls) == 1


def test_cli_dim(capsys):
    assert main(["dim", "2", "2", "2", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == 14
    assert main(["dim", "1", "5", "1", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == 2
    assert main(["dim", "0", "1", "1", "1"]) == 2
    assert "block dims must be positive" in capsys.readouterr().err


def test_cli_sample_structured_space_needs_structured_data(tmp_path, capsys):
    rng = np.random.default_rng(7)
    prob = tmp_path / "p.json"
    _write_problem(prob, random_realization(rng, 2, 2, 2, 1))
    assert main(["sample", "--input", str(prob), "--count", "2",
                 "--space", "sym"]) == 3
    assert "realization is not symmetric" in capsys.readouterr().err


def test_cli_basis_build_and_verify(tmp_path, capsys):
    rng = np.random.default_rng(6)
    R = random_realization(rng, 2, 2, 2, 1)
    prob = tmp_path / "p.json"
    _write_problem(prob, R)
    pen = tmp_path / "cheb.json"
    assert main(["build", "--input", str(prob), "--output", str(pen),
                 "--source", "c1", "--basis", "chebyshev"]) == 0
    # the pencil is expressed against the Chebyshev stacks; verification
    # maps it back to the monomial space first
    assert main(["verify", "--pencil", str(pen), "--input", str(prob),
                 "--basis", "chebyshev"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"


def _run_python(*args):
    """Run the interpreter on ``args`` with this package on its path."""
    import syspencils

    src = os.path.dirname(os.path.dirname(syspencils.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_cli(*args):
    """Run the CLI in a fresh interpreter, as a user would."""
    return _run_python("-m", "syspencils.cli", *args)


def test_cli_non_finite_problem_is_input_error(tmp_path):
    obj = problem_to_dict(_r2())
    obj["realization"]["A"][1][0][0] = [float("nan"), 0.0]
    prob = tmp_path / "nan.json"
    prob.write_text(json.dumps(obj))  # json writes the bare NaN literal
    done = _run_cli("build", "--input", str(prob), "--output", str(tmp_path / "x.json"))
    assert done.returncode == 2
    assert "realization.A[1]" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "x.json").exists()


def test_cli_bare_number_for_pair_is_input_error(tmp_path):
    obj = problem_to_dict(_r1())
    obj["realization"]["B"][0][0] = 1.0
    prob = tmp_path / "bare.json"
    prob.write_text(json.dumps(obj))
    done = _run_cli("build", "--input", str(prob), "--output", str(tmp_path / "x.json"))
    assert done.returncode == 2
    assert "realization.B" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("value", [[True, False], [1.0, True]])
def test_cli_boolean_matrix_entry_is_input_error(tmp_path, value):
    # JSON true is no number, though Python's bool is an int: it must not decode as 1
    obj = problem_to_dict(_r1())
    obj["realization"]["B"][0][0] = value
    prob = tmp_path / "bool.json"
    prob.write_text(json.dumps(obj))
    done = _run_cli("build", "--input", str(prob), "--output", str(tmp_path / "x.json"))
    assert done.returncode == 2
    assert "realization.B" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("field, value", [
    ("X", [float("inf"), 0.0]),
    ("Y", 2.5),
    ("X", [True, True]),
    ("Y", [0.5, False]),
])
def test_cli_bad_pencil_entry_is_input_error(tmp_path, capsys, field, value):
    prob = tmp_path / "r1.json"
    _write_problem(prob, _r1())
    obj = pencil_to_dict(build_C1(_r1()))
    obj[field][0][0] = value
    pen = tmp_path / "bad.json"
    pen.write_text(json.dumps(obj))
    assert main(["verify", "--pencil", str(pen), "--input", str(prob)]) == 2
    assert main(["solve", "--pencil", str(pen), "--input", str(prob)]) == 2
    err = capsys.readouterr().err
    assert f"{field}:" in err


def _special_float_realization():
    """Random (2, 3, 2, 2) data whose B holds signed zeros, subnormals and extreme exponents."""
    R = random_realization(np.random.default_rng(8), 2, 3, 2, 2)
    B = R.B.copy()
    B[0, 0] = complex(-0.0, 5e-324)
    B[1, 0] = complex(1.7976931348623157e308, -2.2250738585072014e-308)
    return Realization(A=R.A, B=B, C=R.C, D=R.D)


def test_save_json_round_trip_bit_exact(tmp_path):
    # signed zeros, subnormals and extreme exponents survive the file
    R = _special_float_realization()
    prob = tmp_path / "p.json"
    _write_problem(prob, R)
    R2, _ = load_problem(prob)

    def same(a, b):
        return np.array_equal(np.asarray(a).view(float), np.asarray(b).view(float))

    for P1, P2 in ((R.A, R2.A), (R.D, R2.D)):
        assert all(same(c1, c2) for c1, c2 in zip(P1.coeffs, P2.coeffs))
    assert same(R.B, R2.B) and same(R.C, R2.C)
    P = build_C1(R)
    pen = tmp_path / "c1.json"
    save_json(pen, pencil_to_dict(P))
    assert pen.read_text().count("\n") == 1  # compact: one line
    P2 = load_pencil(pen)
    assert same(P.X, P2.X) and same(P.Y, P2.Y)
    assert same(P.v, P2.v) and same(P.w, P2.w)
    assert P2.space == P.space and P2.dims == P.dims


def test_indented_files_still_load(tmp_path):
    rng = np.random.default_rng(9)
    R = random_realization(rng, 2, 2, 1, 2)
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    P = build_C1(R)
    for path, obj in ((prob, problem_to_dict(R)), (pen, pencil_to_dict(P))):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1)  # the layout earlier versions wrote
            fh.write("\n")
    R2, _ = load_problem(prob)
    assert np.array_equal(R.B, R2.B) and np.array_equal(R.A.coeffs[1], R2.A.coeffs[1])
    P2 = load_pencil(pen)
    assert np.array_equal(P.X, P2.X) and np.array_equal(P.Y, P2.Y)


def test_cli_solve_prints_the_null_vector_of_s_at_a_pole(tmp_path, capsys):
    # A = lambda - 1, B = 0: S has the zero 1, where A(1) is singular, and the zero 2 of
    # D = lambda - 2.  Recovery reads [F; x] from the pencil vector with no solve, so
    # both get a vector: at 1 the x part of the null vector [1; 1] of S(1), at 2 a null
    # vector of G(2) = D(2); only G itself cannot be evaluated at the pole
    R = Realization(A=MatrixPolynomial.from_scalars(-1, 1), B=np.array([[0.0]]),
                    C=np.array([[1.0]]), D=MatrixPolynomial.from_scalars(-2, 1))
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, R)
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", "c1"]) == 0
    assert main(["solve", "--pencil", str(pen), "--input", str(prob)]) == 0
    out = json.loads(capsys.readouterr().out)
    eigs = np.array([complex(re, im) for re, im in out["eigenvalues"]])
    by_eig = dict(zip(np.round(eigs.real).astype(int), zip(out["eigenvectors"],
                                                           out["system_residuals"])))
    assert sorted(by_eig) == [1, 2]
    for vec, res in by_eig.values():
        assert vec is not None and res < 1e-12
        assert abs(abs(complex(*vec[0])) - 1.0) < 1e-15
    x = np.array([complex(*by_eig[2][0][0])])
    assert abs(eval_transfer(R, eigs[np.round(eigs.real) == 2][0]) @ x)[0] < 1e-12
    P = build_C1(R)
    pencil = solve_pencil(P.X, P.Y)
    one = int(np.flatnonzero(np.round(pencil.eigenvalues.real) == 1)[0])
    rec = recover_right(pencil.right[:, one], P.dims, R, pencil.eigenvalues[one])
    assert rec.system_residual < 1e-12
    with pytest.raises(PoleError):
        eval_transfer(R, pencil.eigenvalues[one])


@pytest.mark.parametrize("case, field", [
    ("ansatz", "options.ansatz.v"),
    ("realization", "realization"),
    ("dims", "dims"),
    ("space", "space"),
])
def test_cli_malformed_structure_is_input_error(tmp_path, case, field):
    problem = problem_to_dict(_r1(), {"ansatz": {}})
    pencil = pencil_to_dict(build_C1(_r1()))
    if case == "realization":
        problem["realization"] = list(problem["realization"].values())
    elif case == "dims":
        pencil["dims"] = list(pencil["dims"].values())
    elif case == "space":
        pencil["space"] = [pencil["space"]]
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    save_json(prob, problem)
    save_json(pen, pencil)
    if case in ("ansatz", "realization"):
        done = _run_cli("build", "--input", str(prob), "--output", str(tmp_path / "x.json"),
                        "--source", "explicit")
    else:
        done = _run_cli("verify", "--pencil", str(pen), "--input", str(prob))
    assert done.returncode == 2
    assert f"error: {field}" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("field, length", [("v", 1), ("v", 3), ("w", 1)])
def test_cli_wrong_ansatz_vector_length_is_input_error(tmp_path, field, length):
    # m = k = 2: an explicit ansatz vector of another length is an input error
    # that names its field, in either space an explicit pencil can be built in
    R = random_realization(np.random.default_rng(4), 2, 2, 2, 1)
    ansatz = {"v": encode_vector(np.ones(2)), "w": encode_vector(np.ones(2))}
    ansatz[field] = encode_vector(np.ones(length))
    prob = tmp_path / "p.json"
    _write_problem(prob, R, {"ansatz": ansatz})
    for space in ("l1g", "l2g"):
        done = _run_cli("build", "--input", str(prob), "--output", str(tmp_path / "x.json"),
                        "--source", "explicit", "--space", space)
        assert done.returncode == 2, (space, done.stderr)
        assert f"error: options.ansatz.{field} must have shape" in done.stderr
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("field", ["W", "W1"])
def test_cli_wrong_free_block_shape_is_input_error(tmp_path, field, capsys):
    R = random_realization(np.random.default_rng(4), 2, 2, 2, 1)  # W is 4 x 2, W1 2 x 1
    ansatz = {"v": encode_vector(np.ones(2)), "w": encode_vector(np.ones(2)),
              field: encode_matrix(np.ones((3, 3)))}
    prob = tmp_path / "p.json"
    _write_problem(prob, R, {"ansatz": ansatz})
    assert main(["build", "--input", str(prob), "--output", str(tmp_path / "x.json"),
                 "--source", "explicit"]) == 2
    assert f"error: options.ansatz.{field} must have shape" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["build", "verify", "solve"])
def test_cli_singular_basis_is_input_error_on_every_verb(tmp_path, capsys, verb):
    # degree 3 reads two newton nodes: equal ones make a singular basis
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, random_realization(np.random.default_rng(8), 3, 2, 2, 1))
    assert main(["build", "--input", str(prob), "--output", str(pen)]) == 0
    files = (["--input", str(prob), "--output", str(tmp_path / "x.json")] if verb == "build"
             else ["--pencil", str(pen), "--input", str(prob)])
    assert main([verb, *files, "--basis", "newton:1,1"]) == 2
    assert "duplicate newton nodes" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["newton:nan,1", "newton:inf,1"])
def test_cli_non_finite_newton_node_is_input_error(tmp_path, token):
    prob = tmp_path / "p.json"
    _write_problem(prob, random_realization(np.random.default_rng(8), 3, 2, 2, 1))
    done = _run_cli("build", "--input", str(prob), "--output", str(tmp_path / "x.json"),
                    "--basis", token)
    assert done.returncode == 2
    assert "error: BasisSpec.nodes must be finite" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("verb, message", [
    ("build", "--space l1s needs r <= n, got r=3, n=2"),
    ("sample", "--space l1s needs r <= n, got r=3, n=2")])
def test_cli_l1s_space_with_r_above_n_is_input_error(tmp_path, capsys, verb, message):
    # the system-matrix identity pads with I_{r x n}, so (2, 2, 2, 3) data fit no l1s
    # member; both verbs name the flag, by one check
    prob = tmp_path / "p.json"
    R = random_realization(np.random.default_rng(5), 2, 2, 2, 3)
    _write_problem(prob, R, {"ansatz": {"v": encode_vector(np.ones(2)),
                                        "w": encode_vector(np.ones(2))}})
    files = (["--output", str(tmp_path / "x.json"), "--source", "explicit"] if verb == "build"
             else ["--count", "2"])
    assert main([verb, "--input", str(prob), *files, "--space", "l1s"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("verb", ["verify", "solve"])
def test_cli_l1s_pencil_file_with_r_above_n_is_input_error(tmp_path, capsys, verb):
    # a pencil file tagged l1s on (2, 2, 2, 3) data: the pencil itself is rejected
    # when it is read, naming its space field, by the check every pencil passes
    prob, pen = tmp_path / "p.json", tmp_path / "l1s.json"
    R = random_realization(np.random.default_rng(5), 2, 2, 2, 3)
    _write_problem(prob, R)
    pencil = pencil_to_dict(build_C1(R))
    pencil["space"] = "l1s"
    save_json(pen, pencil)
    assert main([verb, "--pencil", str(pen), "--input", str(prob)]) == 2
    assert capsys.readouterr().err == (
        "error: AnsatzPencil.space 'l1s' needs r <= n, got r=3, n=2\n")


def test_build_and_dim_do_not_load_scipy(tmp_path):
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, _r1())
    builds = [(str(pen), []), (str(tmp_path / "dl.json"), ["--source", "dl"]),
              (str(tmp_path / "cheb.json"), ["--source", "c1", "--basis", "chebyshev"])]
    script = f"""
import json, sys
loaded = []
import syspencils
from syspencils import cli
loaded.append("scipy" in sys.modules)
for out, extra in {builds!r}:
    assert cli.main(["build", "--input", {str(prob)!r}, "--output", out] + extra) == 0
    loaded.append("scipy" in sys.modules)
assert cli.main(["dim", "2", "3", "1", "2"]) == 0
loaded.append("scipy" in sys.modules)
assert cli.main(["verify", "--pencil", {str(pen)!r}, "--input", {str(prob)!r}]) == 0
loaded.append("scipy" in sys.modules)
print(json.dumps(loaded), file=sys.stderr)
"""
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    # import, the three builds (C1, DL, Chebyshev C1), dim and verify leave
    # scipy out; only the eigensolver's QZ fallback loads it
    assert json.loads(done.stderr.splitlines()[-1]) == [False] * 6


def test_verify_and_solve_do_not_load_scipy(tmp_path):
    rng = np.random.default_rng(8)
    data = {"general": random_realization(rng, 2, 3, 2, 2),
            "sym": random_symmetric_realization(rng, 2, 3, 2, 2),
            "herm": random_hermitian_realization(rng, 2, 2, 2, 1)}
    cases = [("general", "c1", "monomial"), ("general", "c2", "monomial"),
             ("general", "dl", "monomial"), ("sym", "sym", "monomial"),
             ("herm", "herm", "monomial"), ("general", "c1", "chebyshev")]
    runs = []
    for i, (kind, source, basis) in enumerate(cases):
        prob, pen = tmp_path / f"{kind}.json", tmp_path / f"{i}.json"
        _write_problem(prob, data[kind])
        assert main(["build", "--input", str(prob), "--output", str(pen), "--source", source,
                     "--basis", basis]) == 0
        runs += [[verb, "--pencil", str(pen), "--input", str(prob), "--basis", basis]
                 for verb in ("verify", "solve")]
    script = f"""
import contextlib, io, json, sys
from syspencils import cli
out = []
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out.append([code, "scipy" in sys.modules, "numpy.random" in sys.modules])
print(json.dumps(out), file=sys.stderr)
"""
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    # C2 solves for left vectors, the others for right ones; every verify
    # passes, and the sample points of verify need no numpy.random either
    assert json.loads(done.stderr.splitlines()[-1]) == [[0, False, False]] * len(runs)


def _zero_leading_problem(tmp_path):
    """Problem file of A = -2 + lambda + 0 lambda^2, B = C = 1, D = lambda and its
    DL pencil file, which is singular since A_2 = 0."""
    R = Realization(A=MatrixPolynomial.from_scalars(-2, 1, 0), B=np.array([[1.0]]),
                    C=np.array([[1.0]]), D=MatrixPolynomial.from_scalars(0, 1))
    prob, pen = tmp_path / "zlead.json", tmp_path / "zlead_dl.json"
    _write_problem(prob, R)
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", "dl"]) == 0
    return prob, pen


def test_cli_solve_of_a_singular_pencil_is_a_computation_error(tmp_path, capsys):
    prob, pen = _zero_leading_problem(tmp_path)
    assert main(["solve", "--pencil", str(pen), "--input", str(prob)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "singular" in err
    assert main(["verify", "--pencil", str(pen), "--input", str(prob)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["reason"] == "pencil is singular (det vanishes identically)"


def test_singular_pencil_does_not_load_scipy(tmp_path):
    _, pen = _zero_leading_problem(tmp_path)
    script = f"""
import json, sys
from syspencils import SingularSystem, pencil_eigvals, solve_pencil
from syspencils.io import load_pencil
P = load_pencil({str(pen)!r})
raised = []
for solve in (solve_pencil, pencil_eigvals):
    try:
        solve(P.X, P.Y)
    except SingularSystem:
        raised.append(solve.__name__)
print(json.dumps([raised, "scipy" in sys.modules]), file=sys.stderr)
"""
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == [["solve_pencil", "pencil_eigvals"],
                                                        False]


def test_transfer_does_not_load_scipy():
    script = """
import json, sys
import numpy as np
from syspencils import MatrixPolynomial, Realization, core
R = Realization(A=MatrixPolynomial.from_scalars(-2, 1), B=np.array([[1.0]]),
                C=np.array([[1.0]]), D=MatrixPolynomial.from_scalars(0, 1))
G = core.eval_transfer(R, 0.0)
print(json.dumps(["scipy" in sys.modules, G[0, 0].real]), file=sys.stderr)
"""
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    # G(0) = 1 / (0 - 2) + 0, from numpy's guarded state solve
    assert json.loads(done.stderr.splitlines()[-1]) == [False, -0.5]


def test_qz_fallback_loads_scipy(tmp_path):
    P, _ = badly_scaled_l2g_member()
    pen = tmp_path / "l2g.json"
    save_json(pen, pencil_to_dict(P))
    script = f"""
import json, sys
from syspencils import solve_pencil
from syspencils.io import encode_vector, load_pencil
P = load_pencil({str(pen)!r})
before = "scipy" in sys.modules
eigs = solve_pencil(P.X, P.Y, left=False)
print(json.dumps([before, "scipy" in sys.modules, encode_vector(eigs.eigenvalues)]),
      file=sys.stderr)
"""
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    before, after, eigenvalues = json.loads(done.stderr.splitlines()[-1])
    assert (before, after) == (False, True)
    got = np.array([complex(re, im) for re, im in eigenvalues])
    assert np.array_equal(got.view(float), qz_eigvals(P.X, P.Y, right=True).view(float))


@pytest.mark.parametrize("verb, flag, value", [
    ("verify", "--tol", "0"),
    ("verify", "--tol-eig", "nan"),
    ("verify", "--tol-eig", "-1"),
    ("sample", "--count", "-3"),
    ("sample", "--seed", "-1"),
])
def test_cli_bad_numeric_flag_is_input_error(tmp_path, verb, flag, value):
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, _r1())
    save_json(pen, pencil_to_dict(build_C1(_r1())))
    files = ["--input", str(prob)] + (["--pencil", str(pen)] if verb == "verify" else [])
    done = _run_cli(verb, *files, flag, value)
    assert done.returncode == 2, done.stdout
    assert flag in done.stderr and "Traceback" not in done.stderr


def test_cli_build_space_with_a_fixed_space_source_is_input_error(tmp_path):
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, _r1())
    done = _run_cli("build", "--input", str(prob), "--output", str(pen),
                    "--source", "c1", "--space", "l2g")
    assert done.returncode == 2
    assert "--space" in done.stderr and "Traceback" not in done.stderr
    assert not pen.exists()


def test_cli_build_explicit_offers_only_explicit_spaces(tmp_path):
    prob = tmp_path / "p.json"
    _write_problem(prob, _r1(), {"ansatz": {"v": [[1.0, 0.0]], "w": [[1.0, 0.0]]}})
    done = _run_cli("build", "--input", str(prob), "--output", str(tmp_path / "x.json"),
                    "--source", "explicit", "--space", "dl")
    assert done.returncode == 2
    assert "--space" in done.stderr and "Traceback" not in done.stderr
    for space in ("l1s", "l2g"):
        pen = tmp_path / f"{space}.json"
        assert main(["build", "--input", str(prob), "--output", str(pen),
                     "--source", "explicit", "--space", space]) == 0
        assert load_pencil(pen).space == space


@pytest.mark.parametrize("verb", ["verify", "solve"])
def test_cli_basis_on_second_space_pencil_is_input_error(tmp_path, capsys, verb):
    # Chebyshev stacks apply to first-space pencils only, as in `build`
    rng = np.random.default_rng(9)
    prob, pen = tmp_path / "p.json", tmp_path / "c2.json"
    _write_problem(prob, random_realization(rng, 2, 2, 2, 1))
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", "c2"]) == 0
    assert main([verb, "--pencil", str(pen), "--input", str(prob),
                 "--basis", "chebyshev"]) == 2
    assert "first-space" in capsys.readouterr().err


def _pairs(values):
    """Complex values as ``[re, im]`` lists, one per value."""
    return [[z.real, z.imag] for z in values]


@pytest.mark.parametrize("source, dims, basis", [
    ("c1", (2, 3, 1, 2), "monomial"),
    ("c2", (2, 4, 2, 2), "monomial"),
    ("dl", (3, 2, 2, 2), "monomial"),
    ("sym", (2, 3, 2, 2), "monomial"),
    ("c1", (3, 2, 2, 1), "chebyshev"),
])
def test_cli_verify_and_solve_stdout_write_pairs(tmp_path, capsys, source, dims, basis):
    # the eigenvalue lists of `verify` and `solve` are the [re, im] pairs of
    # the computed values, byte for byte
    rng = np.random.default_rng(21)
    make = random_symmetric_realization if source == "sym" else random_realization
    R = make(rng, *dims)
    prob, pen = tmp_path / "p.json", tmp_path / "pen.json"
    _write_problem(prob, R)
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", source,
                 "--basis", basis]) == 0
    P = load_pencil(pen)
    if basis != "monomial":
        P = tilde_to_monomial(P, BasisSpec("chebyshev_T", R.m), BasisSpec("chebyshev_T", R.k))
    args = ["--pencil", str(pen), "--input", str(prob), "--basis", basis]
    assert main(["verify", *args]) == 0
    out = capsys.readouterr().out
    report = verify_linearization(P, R)
    expect = {**json.loads(out), "pencil_eigs": _pairs(report.pencil_eigs),
              "oracle_roots": _pairs(report.oracle_roots)}
    assert out == json.dumps(expect) + "\n"
    assert main(["solve", *args]) == 0
    out = capsys.readouterr().out
    left = P.space == "l2g"
    eigs = solve_pencil(P.X, P.Y, left=left, right=not left).eigenvalues
    assert out == json.dumps({**json.loads(out), "eigenvalues": _pairs(eigs)}) + "\n"


def _pencil_for_file(case):
    rng = np.random.default_rng(31)
    dims = (2, 3, 2, 2)
    if case in ("sym", "herm"):
        make = random_symmetric_realization if case == "sym" else random_hermitian_realization
        return (build_symmetric if case == "sym" else build_hermitian)(make(rng, *dims))
    if case == "special":
        return build_C1(_special_float_realization())
    R = random_realization(rng, *dims)
    if case in ("c1", "c2", "dl"):
        return {"c1": build_C1, "c2": build_C2, "dl": build_DL}[case](R)
    v, w, W, W1 = cgauss(rng, 2), cgauss(rng, 2), cgauss(rng, 6, 3), cgauss(rng, 4, 2)
    if case == "chebyshev":
        return build_L1_tilde(R, BasisSpec("chebyshev_T", 2), BasisSpec("chebyshev_T", 2),
                              v, w, W, W1)
    if case == "l2g":
        return build_pencil_L2(R, v, w, W, W1)
    return build_pencil_L1(R, v, w, W, W1, space=case)


@pytest.mark.parametrize("case", ["c1", "c2", "dl", "sym", "herm", "l1g", "l2g", "l1s",
                                  "chebyshev", "special"])
def test_save_pencil_writes_the_bytes_of_json_dumps(tmp_path, case):
    P = _pencil_for_file(case)
    assert P.space == {"c1": "l1g", "c2": "l2g", "chebyshev": "l1g",
                       "special": "l1g"}.get(case, case)
    via_save_json, via_save_pencil = tmp_path / "a.json", tmp_path / "b.json"
    save_json(via_save_json, pencil_to_dict(P))
    save_pencil(via_save_pencil, P)
    expect = (json.dumps(pencil_to_dict(P)) + "\n").encode()
    assert via_save_pencil.read_bytes() == via_save_json.read_bytes() == expect


@pytest.mark.parametrize("enabled", [True, False])
def test_io_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    R = _r1()
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    bad = {name: tmp_path / f"{name}.json" for name in ("truncated", "structure", "deep")}
    bad["truncated"].write_text('{"format": 1, "X"')
    bad["structure"].write_text('{"format": 1, "realization": [], "dims": 3}')
    bad["deep"].write_text("[" * 200000 + "]" * 200000)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        save_json(prob, problem_to_dict(R))
        assert gc.isenabled() is enabled
        save_pencil(pen, build_C1(R))
        assert gc.isenabled() is enabled
        load_problem(prob)
        assert gc.isenabled() is enabled
        load_pencil(pen)
        assert gc.isenabled() is enabled
        for path in bad.values():
            for load in (load_problem, load_pencil):
                with pytest.raises(ValueError):
                    load(path)
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_pencil_file_round_trip_runs_no_collection(tmp_path):
    # an N = 200 pencil file holds 80,000 [re, im] lists; writing and reading
    # it must leave none of them for the cyclic collector to scan
    P = build_C1(random_realization(np.random.default_rng(3), 2, 80, 2, 20))
    assert P.X.shape == (200, 200)
    pen = tmp_path / "c1.json"
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        save_pencil(pen, P)
        P2 = load_pencil(pen)
    finally:
        gc.callbacks.remove(count)
    assert starts == []
    assert np.array_equal(P2.X, P.X) and np.array_equal(P2.Y, P.Y)


def test_cli_deeply_nested_file_is_input_error(tmp_path, capsys):
    # the decoder recurses once per level; that is an input error (exit 2), not
    # a traceback with exit 1 ("verified fail")
    deep, prob, pen = tmp_path / "deep.json", tmp_path / "p.json", tmp_path / "c1.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    _write_problem(prob, _r1())
    assert main(["build", "--input", str(prob), "--output", str(pen)]) == 0
    assert main(["build", "--input", str(deep), "--output", str(tmp_path / "x.json")]) == 2
    assert "problem file is nested too deeply" in capsys.readouterr().err
    for verb in ("verify", "solve"):
        assert main([verb, "--pencil", str(deep), "--input", str(prob)]) == 2
        assert "pencil file is nested too deeply" in capsys.readouterr().err
        assert main([verb, "--pencil", str(pen), "--input", str(deep)]) == 2
        assert "problem file is nested too deeply" in capsys.readouterr().err
    assert gc.isenabled()


def test_cli_verify_report_of_an_early_fail_is_strict_json(tmp_path, capsys):
    # a C1 file retagged l2g fails membership before any eigenvalue or residual
    # is computed; those fields are null, never the non-JSON Infinity
    R = random_realization(np.random.default_rng(4), 3, 4, 2, 3)
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, R)
    obj = pencil_to_dict(build_C1(R))
    save_json(pen, {**obj, "space": "l2g"})
    assert main(["verify", "--pencil", str(pen), "--input", str(prob)]) == 1

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["verdict"] == "fail" and report["reason"].startswith("membership")
    assert report["max_eig_error"] is None and report["ansatz_residual"] is None


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", ["c1", "c2", "singular"])
def test_cli_solve_report_is_built_and_printed_with_the_collector_paused(
        tmp_path, monkeypatch, capsys, enabled, case):
    # N eigenvectors as [re, im] lists are a tree without cycles, as io's are: solve
    # builds and prints it with the collector off, then restores the collector's state
    import syspencils.cli as cli

    if case == "singular":
        prob, pen = _zero_leading_problem(tmp_path)
    else:
        prob, pen = tmp_path / "p.json", tmp_path / f"{case}.json"
        _write_problem(prob, random_realization(np.random.default_rng(64), 2, 2, 2, 1))
        assert main(["build", "--input", str(prob), "--output", str(pen), "--source", case]) == 0
    seen = []

    def watched(name, fn):
        def call(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return fn(*args, **kwargs)
        return call

    for name in ("solve_pencil", "recover_right", "recover_left", "_emit"):
        monkeypatch.setattr(cli, name, watched(name, getattr(cli, name)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = main(["solve", "--pencil", str(pen), "--input", str(prob)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    out = capsys.readouterr().out
    names = [name for name, _ in seen]
    assert not any(on for _, on in seen)
    if case == "singular":
        assert code == 3 and out == "" and names == ["solve_pencil"]
    else:
        recover = "recover_left" if case == "c2" else "recover_right"
        assert code == 0 and names == ["solve_pencil"] + [recover] * 6 + ["_emit"]
        assert len(json.loads(out)["eigenvectors"]) == 6


@pytest.mark.parametrize("source", ["c1", "c2", "dl"])
def test_cli_build_frees_the_realization_before_writing(tmp_path, monkeypatch, source):
    # a one-shot build never builds from R again: R and the pencil it keeps are freed
    # before the pencil file's JSON tree is made
    import weakref

    import syspencils.cli as cli

    prob, pen = tmp_path / "p.json", tmp_path / f"{source}.json"
    _write_problem(prob, random_realization(np.random.default_rng(65), 2, 3, 2, 2))
    refs, alive = [], []
    build = cli._BUILDERS[source]
    monkeypatch.setitem(cli._BUILDERS, source, lambda R: refs.append(weakref.ref(R)) or build(R))
    save = cli.save_pencil
    monkeypatch.setattr(cli, "save_pencil", lambda *a: alive.append(refs[0]() is not None) or save(*a))
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", source]) == 0
    assert alive == [False]
    assert np.array_equal(load_pencil(pen).X, cli._BUILDERS[source](load_problem(prob)[0]).X)


@pytest.mark.parametrize("source", ["c1", "c2", "dl"])
def test_cli_solve_prints_null_where_the_null_vector_of_s_has_no_x(tmp_path, capsys, source):
    # B = C = 0, A = lambda - 2, D = lambda - 3: the zero 2 of S has the null vector
    # [1; 0], whose x part is zero, so recovery has no vector to print there (null);
    # the zero 3 of D has x = 1.  Either side of recovery, and solve exits 0
    R = Realization(A=MatrixPolynomial.from_scalars(-2, 1), B=np.zeros((1, 1)),
                    C=np.zeros((1, 1)), D=MatrixPolynomial.from_scalars(-3, 1))
    prob, pen = tmp_path / "p.json", tmp_path / f"{source}.json"
    _write_problem(prob, R)
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", source]) == 0
    assert main(["solve", "--pencil", str(pen), "--input", str(prob)]) == 0
    out = json.loads(capsys.readouterr().out)
    eigs = [complex(re, im) for re, im in out["eigenvalues"]]
    assert max(abs(lam - round(lam.real)) for lam in eigs) < 1e-12
    by_eig = {round(lam.real): (vec, res) for lam, vec, res in
              zip(eigs, out["eigenvectors"], out["system_residuals"])}
    assert sorted(by_eig) == [2, 3]
    assert by_eig[2] == (None, None)
    vec, res = by_eig[3]
    assert abs(abs(complex(*vec[0])) - 1.0) < 1e-15 and res < 1e-12


def test_cli_verify_exits_1_on_an_eigenvalue_mismatch_at_a_valid_tol_eig(tmp_path, capsys):
    R = random_realization(np.random.default_rng(0), 2, 2, 2, 1)
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, R)
    save_pencil(pen, build_C1(R))
    files = ["--pencil", str(pen), "--input", str(prob)]
    assert main(["verify", *files]) == 0
    worst = json.loads(capsys.readouterr().out)["max_eig_error"]
    assert worst > 0.0
    tol = worst / 2
    assert main(["verify", *files, "--tol-eig", repr(tol)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["max_eig_error"] == worst
    assert report["reason"] == f"eigenvalue mismatch {worst:.2e} > {tol:.2e}"


@pytest.mark.parametrize("case, verbs, message", [
    ("pencil-dims", ("verify", "solve"), "pencil dims BlockDims(m=1, n=1, k=1, r=1) do not "
                                         "match problem dims BlockDims(m=3, n=2, k=2, r=1)"),
    ("newton-nodes", ("build", "verify", "solve"),
     "newton basis needs at least 2 nodes for degree 3"),
    ("basis-token", ("build", "verify", "solve"), "unknown basis 'legendre'"),
    ("empty-A", ("build", "verify", "solve"),
     "realization.A: matrix polynomial must be a non-empty array of matrices"),
    ("dims-m", ("verify", "solve"), "dims.m must be an integer"),
])
def test_cli_input_checks(tmp_path, capsys, case, verbs, message):
    R = random_realization(np.random.default_rng(8), 3, 2, 2, 1)
    problem, pencil = problem_to_dict(R), pencil_to_dict(build_C1(R))
    basis = {"newton-nodes": "newton:1", "basis-token": "legendre"}.get(case, "monomial")
    if case == "pencil-dims":
        pencil = pencil_to_dict(build_C1(_r1()))
    elif case == "empty-A":
        problem["realization"]["A"] = []
    elif case == "dims-m":
        pencil["dims"]["m"] = 1.5
    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    save_json(prob, problem)
    save_json(pen, pencil)
    for verb in verbs:
        files = (["--input", str(prob), "--output", str(tmp_path / "x.json")] if verb == "build"
                 else ["--pencil", str(pen), "--input", str(prob)])
        assert main([verb, *files, "--basis", basis]) == 2, verb
        assert f"error: {message}" in capsys.readouterr().err, verb


_INPUT_CLASSES = ("OSError", "ValueError", "DimensionError", "SingularBasis")
_RAISED = [OSError, ValueError] + [c for c in vars(errors).values()
                                   if isinstance(c, type) and issubclass(c, errors.PencilError)]


@pytest.mark.parametrize("callee", ["load_problem", "verify_linearization"])
@pytest.mark.parametrize("exc", _RAISED, ids=lambda c: c.__name__)
def test_cli_exit_code_follows_the_errors_class(tmp_path, monkeypatch, capsys, callee, exc):
    # exit 2 for an input error, 3 for any other library error, wherever it is raised:
    # load_problem reads the input, verify_linearization computes
    import syspencils.cli as cli

    prob, pen = tmp_path / "p.json", tmp_path / "c1.json"
    _write_problem(prob, _r1())
    assert main(["build", "--input", str(prob), "--output", str(pen), "--source", "c1"]) == 0

    def fail(*args, **kwargs):
        raise exc(f"raised {exc.__name__}")

    monkeypatch.setattr(cli, callee, fail)
    capsys.readouterr()
    code = main(["verify", "--pencil", str(pen), "--input", str(prob)])
    assert code == (2 if exc.__name__ in _INPUT_CLASSES else 3)
    assert capsys.readouterr() == ("", f"error: raised {exc.__name__}\n")
