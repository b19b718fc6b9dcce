"""The three workloads: cli_desk, sweep and large_solve.

Each workload function takes (seed, seconds, trace) and returns the
result object that run.py prints: correct, attempted, failed and the
metrics, end-to-end ones with tracing off and per-layer ones with it on.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
import gen
from harness import (
    ROOT,
    Cli,
    Speed,
    Tally,
    Timings,
    digest,
    fresh_import,
    peak_rss_mib,
    run_rounds,
    timed_setup,
)
from tracing import PER_LAYER, Tracer

#: Space tag that each build source writes into its pencil file.
SPACE_OF_SOURCE = {"c1": "l1g", "c2": "l2g", "dl": "dl", "sym": "sym", "herm": "herm"}


@dataclass(frozen=True)
class Case:
    """One CLI pencil: realization kind, block sizes (m, n, k, r), source, basis."""

    kind: str
    dims: tuple
    source: str
    basis: str = "monomial"

    @property
    def space(self) -> str:
        return SPACE_OF_SOURCE[self.source]


# Desk scale, N = mn + kr from 8 to 32.  Above N=32 `verify` misjudges
# valid pencils on some seeds (the determinant oracle loses accuracy with
# N), so larger desk problems would fail by seed rather than by change.
DESK_CASES = (
    Case("general", (2, 3, 1, 2), "c1"),
    Case("general", (2, 10, 2, 5), "c2"),
    Case("general", (3, 8, 2, 4), "dl"),
    Case("sym", (2, 6, 2, 3), "sym"),
    Case("herm", (3, 5, 2, 4), "herm"),
    Case("general", (3, 4, 2, 3), "c1", "chebyshev"),
)

# N = 140, 250 and 400; one source each, so a round covers right (C1, DL)
# and left (C2) eigenvector recovery and both ends of the ladder.
LADDER = (
    Case("general", (3, 40, 2, 10), "c1"),
    Case("general", (2, 100, 2, 25), "c2"),
    Case("general", (2, 150, 2, 50), "dl"),
)
# `verify` fails valid pencils at N >= 70 today, so large_solve verifies
# a pencil at the top of the desk range, built during set-up, three times
# a round so that its median rests on more than two calls.
LARGE_VERIFY = Case("general", (2, 12, 2, 4), "c1")
LARGE_VERIFY_REPEATS = 3

# Sweep pencils between two speed probes (about a quarter second of work).
SWEEP_PROBE_EVERY = 50

# Size grid of the spectral-equivalence and recovery acceptance sweeps.
SWEEP_GRID = tuple((m, n, k, r) for n in (1, 2, 3) for r in (1, 2)
                   for m in (1, 2, 3) for k in (1, 2, 3))


def _workdir(name: str) -> str:
    path = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def _finish(name: str, seed: int, tracer, setup_s: float, timed: float, rounds: int,
            pencils: int, timings: Timings, speed: Speed, tally: Tally):
    """The result object and the notes printed before it.

    With a tracer, the metrics are the per-layer ones and the spans are
    written to .bench_results/; otherwise they are the end-to-end ones.
    """
    calls = len(timings.all())
    notes = [f"{rounds} rounds, {pencils} pencils, {calls} timed calls "
             f"(call_s_p90 over {calls} calls) in {timed:.2f} s; raw pencils_per_s "
             f"{pencils / timings.raw_total:.4g}; speed probe median "
             f"{statistics.median(speed.probes):.4f} s over {len(speed.probes)}"]
    if tracer is not None:
        results = os.path.join(ROOT, ".bench_results")
        os.makedirs(results, exist_ok=True)
        spans_file = os.path.join(results, f"spans-{name}-seed{seed}.json")
        tracer.dump(spans_file)
        notes.append(f"traced pencils_per_s {pencils / timings.total():.4g}; spans cover "
                     f"{100 * tracer.root_seconds() / timings.raw_total:.1f}% of the "
                     f"timed calls' wall time; "
                     f"spans in {os.path.relpath(spans_file, ROOT)}")
        layer = tracer.layer_metrics(pencils)
        unit = {"io.bytes": "bytes/pencil", "core.state_solves": "count/pencil",
                "spectra.eigenvalues": "count/pencil"}
        metrics = {key: (layer[key], unit.get(key, "s/pencil")) for key in PER_LAYER}
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "pencils_per_s": (pencils / timings.total(), "1/s"),
            "build_s": (timings.typical("build"), "s"),
            "verify_s": (timings.typical("verify"), "s"),
            "solve_s": (timings.typical("solve"), "s"),
            "call_s_p90": (timings.p90(), "s"),
        }
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": float(value), "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return result, notes + tally.reasons


# ------------------------------------------------------------------- checks

def _cli_failure(code: int, stderr: bytes) -> str:
    lines = stderr.decode(errors="replace").strip().splitlines()
    return f"exit {code}: {lines[-1] if lines else ''}"


def check_built_pencil(X, Y, space: str, expect: str, ref) -> str | None:
    """Members carry the system zeros (and structure); negative builds just exist."""
    if expect == "fail":
        return None if np.all(np.isfinite(X)) and np.all(np.isfinite(Y)) else "non-finite"
    return (checks.structure_mismatch(X, Y, space)
            or checks.eig_mismatch(checks.pencil_eigs(X, Y), ref))


def check_verdict(verdict: str, pencil_eigs, expect: str, ref, reason: str = "") -> str | None:
    if verdict != expect:
        return f"verdict {verdict!r}, expected {expect!r} ({reason})"
    if expect == "pass":
        return checks.eig_mismatch(pencil_eigs, ref)
    return None


def check_solve(eigs, vectors, raw: gen.Raw, left: bool, ref) -> str | None:
    bad = checks.eig_mismatch(eigs, ref)
    if bad:
        return bad
    for lam, x in zip(eigs, vectors):
        bad = checks.vector_mismatch(raw, lam, x, left)
        if bad:
            return bad
    return None


def check_pencil_file(data: bytes, case: Case, ref) -> str | None:
    """A written pencil has the source's space tag, structure and spectrum.

    Basis-form pencils are strictly equivalent to monomial ones, so their
    finite eigenvalues are the system zeros too.
    """
    obj = json.loads(data)
    if obj.get("space") != case.space:
        return f"space tag {obj.get('space')!r}, expected {case.space!r}"
    X, Y = checks.decode_matrix(obj["X"]), checks.decode_matrix(obj["Y"])
    return check_built_pencil(X, Y, case.space, "pass", ref)


def check_verify_report(stdout: bytes, expect: str, ref) -> str | None:
    report = json.loads(stdout)
    return check_verdict(report["verdict"], checks.decode_vector(report["pencil_eigs"]),
                         expect, ref, report.get("reason", ""))


def check_solve_output(stdout: bytes, raw: gen.Raw, left: bool, ref) -> str | None:
    out = json.loads(stdout)
    xs = [None if vec is None else checks.decode_vector(vec) for vec in out["eigenvectors"]]
    return check_solve(checks.decode_vector(out["eigenvalues"]), xs, raw, left, ref)


class CliPlan:
    """Problem files, pencil files and references for a list of CLI cases."""

    def __init__(self, cases, seed: int, workdir: str):
        self.cases = cases
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.raws = [gen.realization(rng, *case.dims, kind=case.kind) for case in cases]
        self._refs: dict[int, np.ndarray] = {}

    def problem(self, i: int) -> str:
        return os.path.join(self.workdir, f"problem-{i}.json")

    def pencil(self, i: int) -> str:
        return os.path.join(self.workdir, f"pencil-{i}.json")

    def write_problems(self):
        for i, raw in enumerate(self.raws):
            gen.write_problem(self.problem(i), raw)

    def ref(self, i: int) -> np.ndarray:
        if i not in self._refs:
            self._refs[i] = checks.reference_zeros(self.raws[i])
        return self._refs[i]

    def args(self, verb: str, i: int) -> list[str]:
        case = self.cases[i]
        args = [verb, "--input", self.problem(i)]
        if verb == "build":
            args += ["--output", self.pencil(i), "--source", case.source]
        else:
            args += ["--pencil", self.pencil(i)]
        if case.basis != "monomial":
            args += ["--basis", case.basis]
        return args

    def check(self, tally: Tally, verb: str, i: int, code: int, out: bytes, err: bytes):
        what = f"{verb} case {i} {self.cases[i]}"
        if code != 0:
            tally.error(what, _cli_failure(code, err))
        elif verb == "build":
            with open(self.pencil(i), "rb") as fh:
                data = fh.read()
            tally.check(what, digest(verb, i, data), check_pencil_file,
                        data, self.cases[i], self.ref(i))
        elif verb == "verify":
            tally.check(what, digest(verb, i, out), check_verify_report,
                        out, "pass", self.ref(i))
        else:
            tally.check(what, digest(verb, i, out), check_solve_output,
                        out, self.raws[i], self.cases[i].space == "l2g", self.ref(i))


def _cli_workload(name, cases, ops, pencils_per_round, warmup, seed, seconds, trace):
    """Shared body of the CLI workloads.

    ``ops`` is the round: (verb, case index, pencil id) triples.  Set-up
    writes the problem files and runs the ``warmup`` (verb, case index)
    calls, untraced, in fresh interpreters.
    """
    workdir = _workdir(name)
    try:
        plan = CliPlan(cases, seed, workdir)
        plain = Cli(workdir)

        def setup():
            plan.write_problems()
            for verb, i in warmup:
                code, _, err, _ = plain(plan.args(verb, i))
                if code != 0:
                    raise RuntimeError(f"warm-up {verb} failed: {_cli_failure(code, err)}")

        speed = Speed()
        _, setup_s = timed_setup(setup, speed)
        tracer = Tracer() if trace else None
        cli = Cli(workdir, tracer)
        tally, timings = Tally(), Timings()

        def one_round():
            outputs = []
            before = speed.probe()
            for verb, i, pencil in ops:
                if tracer is not None:
                    tracer.pencil = pencil
                code, out, err, dt = cli(plan.args(verb, i))
                after = speed.probe()
                timings.add(verb, i, dt, speed.scale(before, after))
                before = after
                outputs.append((verb, i, code, out, err))
            return outputs

        def check_round(outputs):
            for verb, i, code, out, err in outputs:
                plan.check(tally, verb, i, code, out, err)

        timed, rounds = run_rounds(seconds, one_round, check_round)
        return _finish(name, seed, tracer, setup_s, timed, rounds,
                       pencils_per_round * rounds, timings, speed, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cli_desk(seed: int, seconds: float, trace: bool):
    """build, verify and solve of every desk case, each in a fresh interpreter."""
    ops = [(verb, i, i) for i in range(len(DESK_CASES))
           for verb in ("build", "verify", "solve")]
    return _cli_workload("cli_desk", DESK_CASES, ops, len(DESK_CASES),
                         [("build", 0)], seed, seconds, trace)


def large_solve(seed: int, seconds: float, trace: bool):
    """build then solve along the N=140..400 ladder, then verify a desk-top pencil."""
    cases = LADDER + (LARGE_VERIFY,)
    v = len(LADDER)
    ops = [(verb, i, i) for i in range(v) for verb in ("build", "solve")]
    ops += [("verify", v, v)] * LARGE_VERIFY_REPEATS
    return _cli_workload("large_solve", cases, ops, len(LADDER),
                         [("build", v)], seed, seconds, trace)


# --------------------------------------------------------------------- sweep

@dataclass
class SweepItem:
    """One pencil of the sweep: how to build it, what verify must say, how to solve."""

    label: str
    raw: gen.Raw
    R: object
    build: tuple | None      # (syspencils function name, args), None if prebuilt
    pencil: object = None    # prebuilt pencil (the perturbed member)
    expect: str = "pass"
    solve: str | None = None  # "right", "left" or None


def sweep_items(seed: int):
    """Members of every space on the size grid, plus the negative cases."""
    import syspencils as sp

    rng = np.random.default_rng(seed)
    items = []
    for m, n, k, r in SWEEP_GRID:
        raw = gen.realization(rng, m, n, k, r)
        raw_s = gen.realization(rng, m, n, k, r, kind="sym")
        raw_h = gen.realization(rng, m, n, k, r, kind="herm")
        R, Rs, Rh = (gen.to_realization(x) for x in (raw, raw_s, raw_h))
        s = [int(x) for x in rng.integers(0, 2**31, size=7)]
        items += [
            SweepItem("c1", raw, R, ("build_C1", (R,)), solve="right"),
            SweepItem("c2", raw, R, ("build_C2", (R,)), solve="left"),
            SweepItem("dl", raw, R, ("sample_space", (R, s[0], "dl")), solve="right"),
            SweepItem("l1g", raw, R, ("sample_space", (R, s[1], "l1g"))),
            SweepItem("l2g", raw, R, ("sample_space", (R, s[2], "l2g"))),
            SweepItem("sym", raw_s, Rs, ("sample_space", (Rs, s[3], "sym"))),
            SweepItem("herm", raw_h, Rh, ("sample_space", (Rh, s[4], "herm"))),
        ]
        if r <= n:
            items.append(SweepItem("l1s", raw, R, ("sample_space", (R, s[5], "l1s"))))
        if (m, k) == (2, 2):
            raw_z = gen.zero_leading(raw)
            Rz = gen.to_realization(raw_z)
            items.append(SweepItem("dl-zero-Am", raw_z, Rz, ("build_DL", (Rz,)),
                                   expect="fail"))
            P = sp.sample_space(R, s[6], "l1g")
            noise = gen.cgauss(rng, *P.Y.shape) * 1e-4 * np.max(np.abs(P.Y))
            bad = sp.AnsatzPencil(X=P.X, Y=P.Y + noise, dims=P.dims, space=P.space,
                                  v=P.v, w=P.w)
            items.append(SweepItem("l1g-perturbed-Y", raw, R, None, pencil=bad,
                                   expect="fail"))
    return items


def _solve_and_recover(sp, P, R, side: str):
    eigs = sp.solve_pencil(P.X, P.Y)
    vecs = eigs.left if side == "left" else eigs.right
    recover = sp.recover_left if side == "left" else sp.recover_right
    xs = []
    for i, lam in enumerate(eigs.eigenvalues):
        try:
            xs.append(recover(vecs[:, i], P.dims, R, lam).x)
        except sp.PencilError:
            xs.append(None)
    return eigs.eigenvalues, xs


def run_sweep_item(sp, idx: int, item: SweepItem, record) -> dict:
    """Build, verify and maybe solve one pencil; ``record(kind, idx, seconds)``
    gets the wall time of each call.

    Functions are looked up on the package at call time, so a tracer's
    wrappers are the ones called.
    """
    out = {}
    try:
        P = item.pencil
        if item.build is not None:
            t0 = perf_counter()
            P = getattr(sp, item.build[0])(*item.build[1])
            record("build", idx, perf_counter() - t0)
            out["build"] = P
        t0 = perf_counter()
        report = sp.verify_linearization(P, item.R)
        record("verify", idx, perf_counter() - t0)
        out["verify"] = (report.verdict, report.pencil_eigs, report.reason)
        if item.solve:
            t0 = perf_counter()
            out["solve"] = _solve_and_recover(sp, P, item.R, item.solve)
            record("solve", idx, perf_counter() - t0)
    except Exception as exc:  # the program failed this operation
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def check_sweep_output(tally: Tally, idx: int, item: SweepItem, out: dict, zeros):
    """Count and check each operation of one pencil; ``zeros`` as reference."""
    what = f"{item.label} {item.raw.dims}"
    if "build" in out:
        P = out["build"]
        tally.check(f"build {what}", digest("build", idx, P.X.tobytes(), P.Y.tobytes()),
                    check_built_pencil, P.X, P.Y, P.space, item.expect, zeros)
    if "verify" in out:
        verdict, eigs, reason = out["verify"]
        tally.check(f"verify {what}", digest("verify", idx, verdict, eigs.tobytes(), reason),
                    check_verdict, verdict, eigs, item.expect, zeros, reason)
    if "solve" in out:
        eigs, xs = out["solve"]
        key = digest("solve", idx, eigs.tobytes(),
                     *[b"-" if x is None else x.tobytes() for x in xs])
        tally.check(f"solve {what}", key, check_solve,
                    eigs, xs, item.raw, item.solve == "left", zeros)
    if "error" in out:
        tally.error(what, out["error"])


def sweep(seed: int, seconds: float, trace: bool):
    """In-process build, verify and (for C1, C2, DL) solve over the size grid."""
    import syspencils as sp

    def setup():
        fresh_import("syspencils")
        items = sweep_items(seed)
        for idx, item in enumerate(items[:8]):  # warm-up: one pencil of each space
            run_sweep_item(sp, idx, item, lambda *call: None)
        return items

    speed = Speed()
    items, setup_s = timed_setup(setup, speed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    tally, timings = Tally(), Timings()
    refs: dict[int, np.ndarray] = {}

    def one_round():
        outputs = []
        calls = []
        before = speed.probe()
        for start in range(0, len(items), SWEEP_PROBE_EVERY):
            for idx in range(start, min(start + SWEEP_PROBE_EVERY, len(items))):
                if tracer is not None:
                    tracer.pencil = idx
                outputs.append(run_sweep_item(sp, idx, items[idx],
                                              lambda *call: calls.append(call)))
            after = speed.probe()
            scale = speed.scale(before, after)
            for kind, idx, seconds in calls:
                timings.add(kind, idx, seconds, scale)
            calls.clear()
            before = after
        return outputs

    def check_round(outputs):
        for idx, out in enumerate(outputs):
            item = items[idx]
            if item.expect == "pass" and idx not in refs:
                refs[idx] = checks.reference_zeros(item.raw)
            check_sweep_output(tally, idx, item, out, refs.get(idx))

    timed, rounds = run_rounds(seconds, one_round, check_round)
    return _finish("sweep", seed, tracer, setup_s, timed, rounds,
                   len(items) * rounds, timings, speed, tally)


WORKLOADS = {"cli_desk": cli_desk, "sweep": sweep, "large_solve": large_solve}
