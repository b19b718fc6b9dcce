"""Shared machinery: set-up repeats, the round loop, op tallies and CLI calls.

A workload is a closed loop with one client.  Each round runs the same
operations on the same inputs; the loop runs whole rounds until the timed
seconds are used up, so every run attempts a whole number of rounds and
the failed share does not depend on run length.  Outputs of a round are
checked after the round, outside the timed section.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")

#: BLAS threads for the harness and every CLI process it starts.  One
#: thread: on the 2-vCPU reference machine a second thread made the N=400
#: solve slower (11.5 s against 7.8 s) and its timing less repeatable.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def peak_rss_mib() -> float:
    """Peak resident memory of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tally:
    """Attempted and failed operations, with the first few failure reasons.

    An operation fails when it raises or exits non-zero, or when a check
    rejects its output.  A rejected output also clears ``correct``, which
    speaks of the operations that did not fail outright.  Check results
    are cached by a digest of the output, so an identical output in a
    later round is not checked twice.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: list[str] = []
        self._cache: dict[str, str | None] = {}

    def _fail(self, what: str, reason: str):
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{what}: {reason}")

    def error(self, what: str, reason: str):
        self.attempted += 1
        self._fail(what, reason)

    def check(self, what: str, key: str, check, *args):
        """Count one operation whose output ``check(*args)`` judges."""
        self.attempted += 1
        if key not in self._cache:
            try:
                self._cache[key] = check(*args)
            except Exception as exc:  # an unreadable output is a wrong output
                self._cache[key] = f"check raised {type(exc).__name__}: {exc}"
        reason = self._cache[key]
        if reason is not None:
            self.correct = False
            self._fail(what, reason)


#: Seconds one speed probe takes on the reference machine of README.md.
PROBE_REF_S = 0.0222


class Speed:
    """Machine-speed probe: a fixed kernel of the benchmark's own code.

    The reference machine of README.md, a VM shared with other tenants,
    runs the same code 10-40% slower in some minutes than in others, and
    run-to-run spreads of raw wall times reached 0.2.  Each timed call is therefore scaled by
    PROBE_REF_S over the mean of the probes taken just before and just
    after it, giving seconds at reference speed.  The kernel mixes what
    the program spends its time on: a small complex QZ solve, JSON encode
    and decode, and interpreter-bound dictionary work.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20240518)
        self._A = rng.standard_normal((90, 90)) + 1j * rng.standard_normal((90, 90))
        self._B = rng.standard_normal((90, 90)) + 1j * rng.standard_normal((90, 90))
        self._data = rng.standard_normal(4000).tolist()
        self.probes: list[float] = []

    def _kernel(self) -> float:
        import scipy.linalg

        t0 = time.perf_counter()
        scipy.linalg.eigvals(self._A, self._B)
        json.loads(json.dumps(self._data))
        counts: dict[int, int] = {}
        for i in range(30000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        return time.perf_counter() - t0

    def probe(self) -> float:
        """Median of three kernel runs, in seconds."""
        seconds = statistics.median(self._kernel() for _ in range(3))
        self.probes.append(seconds)
        return seconds

    @staticmethod
    def scale(before: float, after: float) -> float:
        return 2.0 * PROBE_REF_S / (before + after)


class Timings:
    """Time of every timed call, by kind (build, verify, solve) and case.

    ``add`` takes wall seconds and the speed scale of the call; the
    metrics use the scaled times, the notes also the raw total.
    """

    def __init__(self):
        self.by_kind: dict[str, dict] = {}
        self.raw_total = 0.0

    def add(self, kind: str, case, seconds: float, scale: float = 1.0):
        self.raw_total += seconds
        self.by_kind.setdefault(kind, {}).setdefault(case, []).append(seconds * scale)

    def total(self) -> float:
        return sum(self.all())

    def typical(self, kind: str) -> float:
        """Geometric mean over cases of each case's median call time.

        Cases differ in size by up to 50x; a plain median over all calls
        would report one middle case and ignore the rest, while this
        weights every case alike and pools the samples of all of them.
        """
        medians = [statistics.median(ts) for ts in self.by_kind[kind].values()]
        return statistics.geometric_mean(medians)

    def all(self) -> list[float]:
        return [t for cases in self.by_kind.values() for ts in cases.values() for t in ts]

    def p90(self) -> float:
        """Nearest-rank 90th percentile: the ceil(0.9 n)-th fastest call.

        An interpolated percentile would mix two different calls wherever
        the call mix has a step, as large_solve's does at its N=400 solves.
        """
        calls = sorted(self.all())
        return calls[math.ceil(0.9 * len(calls)) - 1]


def timed_setup(setup, speed: Speed):
    """Run ``setup()`` SETUP_REPEATS times; return its last result and the
    median set-up time at reference speed."""
    times = []
    result = None
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = setup()
        seconds = time.perf_counter() - t0
        after = speed.probe()
        times.append(seconds * speed.scale(before, after))
        before = after
    return result, statistics.median(times)


def run_rounds(seconds: float, one_round, check_round):
    """Run whole rounds until ``seconds`` of timed work is used.

    ``one_round()`` returns the outputs of the round; ``check_round`` is
    applied to them after the round's clock has stopped.  Another round
    starts while it would end nearer to ``seconds`` than stopping now.
    Returns (timed seconds, rounds).
    """
    timed = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        outputs = one_round()
        timed += time.perf_counter() - t0
        rounds += 1
        check_round(outputs)
        if timed + 0.5 * timed / rounds >= seconds:
            return timed, rounds


def fresh_import(module: str):
    """Import ``module`` in a fresh interpreter, as a user's process would."""
    subprocess.run([sys.executable, "-c", f"import {module}"], env=child_env(),
                   check=True, stdout=subprocess.DEVNULL)


class Cli:
    """Runs ``python -m syspencils.cli`` verbs in fresh interpreters.

    With a tracer, the verb runs under ``traced_cli.py`` instead, which
    writes its spans to a file that is read back into the tracer.
    """

    def __init__(self, workdir: str, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.env = child_env()
        self._calls = 0

    def __call__(self, args: list[str]):
        """Run one verb; returns (exit code, stdout bytes, stderr bytes, seconds)."""
        if self.tracer is None:
            argv = [sys.executable, "-m", "syspencils.cli", *args]
        else:
            self._calls += 1
            spans = os.path.join(self.workdir, f"spans-{self._calls}.json")
            argv = [sys.executable, TRACED_CLI, spans, str(self.tracer.pencil), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, capture_output=True)
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.absorb_file(spans)
        return proc.returncode, proc.stdout, proc.stderr, seconds
