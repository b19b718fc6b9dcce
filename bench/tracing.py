"""Spans around calls into the public functions of each syspencils module.

The tracer replaces each traced function, in every ``syspencils`` module
that holds a reference to it, by a wrapper that records a span: name,
start, end, parent span and the pencil it belongs to.  Spans stay in
memory; a traced CLI process writes its spans to a file when it ends.
A span's self time is its duration minus the time its child spans
cover; a layer's metric is the self time of its spans per pencil.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

#: Layer metric -> (module, public function) pairs whose self time it sums.
LAYERS = {
    "cli.verb_self_s": [("cli", "main")],
    "io.decode_s": [("io", "load_problem"), ("io", "load_pencil")],
    "io.encode_s": [("io", "pencil_to_dict"), ("io", "save_json")],
    "spaces.build_s": [("spaces", name) for name in (
        "build_C1", "build_C2", "build_DL", "build_symmetric", "build_hermitian",
        "build_pencil_L1", "build_pencil_L2", "sample_space")],
    "spaces.membership_s": [("spaces", "membership")],
    "spaces.residual_s": [("spaces", "residual_ansatz")],
    "shiftsum.shift_sum_s": [("shiftsum", "block_shift_sum")],
    "core.state_solve_s": [("core", "solve_state"), ("core", "solve_state_left"),
                           ("core", "eval_transfer")],
    "spectra.zeros_s": [("spectra", "system_zeros")],
    "spectra.samples_s": [("spectra", "nonpole_samples")],
    "spectra.z_rank_s": [("spectra", "z_rank")],
    "spectra.match_s": [("spectra", "match_multisets")],
    "spectra.verify_self_s": [("spectra", "verify_linearization")],
    "spectra.qz_s": [("spectra", "solve_pencil"), ("spectra", "pencil_eigvals")],
    "spectra.recover_s": [("spectra", name) for name in (
        "recover_right", "recover_left", "lift_right", "lift_left")],
    "basis.transform_s": [("basis", "build_L1_tilde"), ("basis", "tilde_to_monomial")],
}

#: Import of syspencils.cli in a fresh interpreter, recorded by traced_cli.py.
IMPORT_SPAN = "cli.import"

COUNT_METRICS = ("io.bytes", "core.state_solves", "spectra.eigenvalues")

PER_LAYER = ("cli.import_s",) + tuple(LAYERS) + COUNT_METRICS

_LAYER_OF = {f"{mod}.{fn}": layer for layer, fns in LAYERS.items() for mod, fn in fns}
_LAYER_OF[IMPORT_SPAN] = "cli.import_s"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count(name: str, args, result):
    """(count metric, amount) recorded on a span, or None."""
    if name in ("core.solve_state", "core.solve_state_left"):
        return "core.state_solves", 1
    if name == "spectra.solve_pencil":
        return "spectra.eigenvalues", int(result.eigenvalues.size)
    if name == "spectra.pencil_eigvals":
        return "spectra.eigenvalues", int(result.size)
    if name in ("io.load_problem", "io.load_pencil", "io.save_json"):
        return "io.bytes", _file_size(args[0]) if args else 0
    return None


class Tracer:
    """In-memory span store; ``pencil`` tags the spans recorded next."""

    def __init__(self):
        self.spans: list = []
        self.pencil = 0
        self._stack: list[int] = []

    def record(self, name: str, t0: float, t1: float, parent=None, count=None):
        self.spans.append([name, t0, t1, parent, self.pencil, count])
        return len(self.spans) - 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = self.record(name, 0.0, 0.0, parent)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = [t0, t1]
            self.spans[idx][5] = _count(name, args, result)
            return result
        return traced

    def install(self):
        """Wrap every traced function wherever a syspencils module refers to it."""
        import syspencils.cli  # noqa: F401  (loads every module of the package)

        modules = [m for key, m in list(sys.modules.items())
                   if key == "syspencils" or key.startswith("syspencils.")]
        for fns in LAYERS.values():
            for mod, fn in fns:
                orig = getattr(sys.modules[f"syspencils.{mod}"], fn)
                wrapper = self.wrap(f"{mod}.{fn}", orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def absorb_file(self, path: str):
        """Add the spans a traced CLI process wrote, re-indexing parents."""
        try:
            with open(path, encoding="utf-8") as fh:
                spans = json.load(fh)
        except FileNotFoundError:  # the process died before writing spans
            return
        os.remove(path)
        base = len(self.spans)
        for name, t0, t1, parent, pencil, count in spans:
            self.spans.append([name, t0, t1, None if parent is None else parent + base,
                               pencil, count])

    def layer_metrics(self, pencils: int) -> dict:
        """Self seconds per pencil for each layer, and counts per pencil."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        totals = dict.fromkeys(PER_LAYER, 0.0)
        for i, (name, t0, t1, _, _, count) in enumerate(self.spans):
            totals[_LAYER_OF[name]] += (t1 - t0) - child_time[i]
            if count is not None:
                totals[count[0]] += count[1]
        return {key: value / pencils for key, value in totals.items()}

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(t1 - t0 for _, t0, t1, parent, _, _ in self.spans if parent is None)
