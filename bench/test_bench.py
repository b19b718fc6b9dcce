"""The benchmark's checks catch wrong outputs.

Run from the repository root with ``python -m pytest bench -q``.  Each
test passes a real output of the program through the same counting path
a workload uses, then a tampered copy, and asserts that the tampered one
is counted as a failed operation.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from harness import Cli, Tally  # noqa: E402
from tracing import Tracer  # noqa: E402

import syspencils as sp  # noqa: E402


@pytest.fixture(scope="module")
def items():
    return workloads.sweep_items(seed=3)


def _item(items, label, r=None):
    return next(it for it in items if it.label == label and (r is None or it.raw.dims[3] == r))


def _run_and_check(items, item, tamper=None):
    """Tally of one pencil's operations, after ``tamper(out)`` if given."""
    idx = items.index(item)
    out = workloads.run_sweep_item(sp, idx, item, lambda *call: None)
    if tamper is not None:
        tamper(out)
    zeros = checks.reference_zeros(item.raw) if item.expect == "pass" else None
    tally = Tally()
    workloads.check_sweep_output(tally, idx, item, out, zeros)
    return tally


@pytest.mark.parametrize("label", ["c1", "c2", "dl", "l1g", "l1s", "l2g", "sym", "herm",
                                   "dl-zero-Am", "l1g-perturbed-Y"])
def test_right_outputs_pass(items, label):
    tally = _run_and_check(items, _item(items, label))
    assert tally.attempted >= 1
    assert (tally.failed, tally.correct) == (0, True), tally.reasons


def test_perturbed_eigenvalue_fails(items):
    def verify_off(out):
        verdict, eigs, reason = out["verify"]
        out["verify"] = (verdict, eigs + np.eye(1, eigs.size, 0).ravel() * 1e-4, reason)

    def solve_off(out):
        eigs, xs = out["solve"]
        out["solve"] = (eigs * (1 + 1e-4), xs)

    for tamper in (verify_off, solve_off):
        tally = _run_and_check(items, _item(items, "c1"), tamper)
        assert (tally.failed, tally.correct) == (1, False)


def test_flipped_verdict_fails(items):
    def flip(out):
        verdict, eigs, reason = out["verify"]
        out["verify"] = ("fail" if verdict == "pass" else "pass", eigs, reason)

    for label in ("c2", "dl-zero-Am", "l1g-perturbed-Y"):
        tally = _run_and_check(items, _item(items, label), flip)
        assert (tally.failed, tally.correct) == (1, False), label


def test_random_recovered_vector_fails(items):
    rng = np.random.default_rng(0)

    def randomize(out):
        eigs, xs = out["solve"]
        xs = list(xs)
        xs[0] = gen.cgauss(rng, xs[0].size)
        out["solve"] = (eigs, xs)

    for label in ("c1", "c2"):  # right and left recovery; r = 2 so G x != 0
        tally = _run_and_check(items, _item(items, label, r=2), randomize)
        assert (tally.failed, tally.correct) == (1, False), label


def test_raised_error_fails(items):
    def boom(out):
        out["error"] = "PencilError: raised"

    tally = _run_and_check(items, _item(items, "dl"), boom)
    assert (tally.failed, tally.correct) == (1, True)


@pytest.fixture(scope="module")
def built_plan(tmp_path_factory):
    """A desk problem and the pencil file the CLI builds from it."""
    workdir = str(tmp_path_factory.mktemp("cli"))
    plan = workloads.CliPlan((workloads.Case("general", (2, 3, 1, 2), "c1"),), 5, workdir)
    plan.write_problems()
    cli = Cli(workdir)
    outputs = {verb: cli(plan.args(verb, 0)) for verb in ("build", "verify", "solve")}
    return plan, outputs


def _cli_tally(plan, verb, code, out, err=b""):
    tally = Tally()
    plan.check(tally, verb, 0, code, out, err)
    return tally


def test_cli_outputs_pass(built_plan):
    plan, outputs = built_plan
    for verb, (code, out, err, _) in outputs.items():
        tally = _cli_tally(plan, verb, code, out, err)
        assert (tally.attempted, tally.failed) == (1, 0), (verb, tally.reasons)


def test_tampered_pencil_file_fails(built_plan):
    plan, outputs = built_plan
    path = plan.pencil(0)
    with open(path, "rb") as fh:
        original = fh.read()
    obj = json.loads(original)
    obj["Y"][0][0][0] += 0.5
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        tally = _cli_tally(plan, "build", 0, b"")
        assert (tally.failed, tally.correct) == (1, False)
    finally:
        with open(path, "wb") as fh:
            fh.write(original)


def test_cli_report_tampering_fails(built_plan):
    plan, outputs = built_plan
    report = json.loads(outputs["verify"][1])
    report["pencil_eigs"][0][0] += 1e-3
    assert _cli_tally(plan, "verify", 0, json.dumps(report).encode()).failed == 1
    report = json.loads(outputs["verify"][1])
    report["verdict"] = "fail"
    assert _cli_tally(plan, "verify", 0, json.dumps(report).encode()).failed == 1
    solved = json.loads(outputs["solve"][1])
    solved["eigenvalues"][0][1] += 1e-3
    assert _cli_tally(plan, "solve", 0, json.dumps(solved).encode()).failed == 1


def test_cli_exit_code_fails(built_plan):
    plan, _ = built_plan
    tally = _cli_tally(plan, "solve", 3, b"", b"error: boom\n")
    assert (tally.failed, tally.correct) == (1, True)
    assert "exit 3" in tally.reasons[0]


def test_reference_zeros_known_answer():
    # S(lambda) = [[lambda - 2, -1], [1, lambda]]: det S = (lambda - 1)^2
    raw = gen.Raw(A=(np.array([[-2.0]]), np.array([[1.0]])), B=np.array([[1.0]]),
                  C=np.array([[1.0]]), D=(np.array([[0.0]]), np.array([[1.0]])))
    assert np.allclose(np.sort_complex(checks.reference_zeros(raw)), [1.0, 1.0], atol=1e-6)


def test_self_time_subtracts_children():
    tracer = Tracer()
    parent = tracer.record("spectra.verify_linearization", 0.0, 10.0)
    tracer.record("spectra.system_zeros", 1.0, 4.0, parent)
    tracer.record("core.solve_state", 5.0, 6.0, parent, ("core.state_solves", 1))
    metrics = tracer.layer_metrics(pencils=2)
    assert metrics["spectra.verify_self_s"] == pytest.approx(3.0)
    assert metrics["spectra.zeros_s"] == pytest.approx(1.5)
    assert metrics["core.state_solve_s"] == pytest.approx(0.5)
    assert metrics["core.state_solves"] == pytest.approx(0.5)
