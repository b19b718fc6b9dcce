"""JSON schemas for problem and pencil files.

Complex numbers are written as ``[re, im]`` pairs, matrices as row-major
nested arrays of pairs and matrix polynomials as arrays of matrices in
ascending degree, so files round-trip bit exactly and stay language
neutral.  Both file kinds carry a ``"format": 1`` version field.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .core import BlockDims, MatrixPolynomial, Realization
from .spaces import SPACES, AnsatzPencil

__all__ = [
    "FORMAT_VERSION",
    "encode_matrix",
    "decode_matrix",
    "encode_vector",
    "decode_vector",
    "problem_to_dict",
    "problem_from_dict",
    "load_problem",
    "pencil_to_dict",
    "pencil_from_dict",
    "load_pencil",
    "save_json",
    "save_pencil",
]

FORMAT_VERSION = 1


def encode_matrix(M) -> list:
    """Nested lists of ``[re, im]`` float pairs, one per entry of ``M``."""
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def decode_matrix(data, name: str = "matrix") -> np.ndarray:
    """Complex matrix from rows of ``[re, im]`` pairs, bit exact.

    Raises ValueError naming ``name`` unless ``data`` is a non-empty, rectangular
    nesting of number pairs, all finite (JSON ``true`` is no number, though Python's
    bool is an int).  The pairs are flattened into one array conversion.
    """
    try:
        widths = {len(row) for row in data}
        pairs = list(chain.from_iterable(data))
        entries = list(chain.from_iterable(pairs))
        flat = np.array(entries)
        ok = (isinstance(data, list) and len(widths) == 1 and len(pairs) > 0
              and set(map(len, pairs)) == {2} and flat.dtype.kind in "iuf"
              and set(map(type, entries)) <= {int, float})
    except (TypeError, ValueError):  # a bare number where a list belongs
        ok = False
    if not ok:
        raise ValueError(f"{name}: expected a non-empty nested array of [re, im] pairs")
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{name}: entries must be finite numbers")
    return flat.astype(float).view(complex).reshape(len(data), -1)


def encode_float(x) -> float | None:
    """``x`` as a JSON number, or None (``null``) when it is not finite."""
    return float(x) if np.isfinite(x) else None


def encode_vector(v) -> list:
    return encode_matrix(np.asarray(v).reshape(-1))


def decode_vector(data, name: str = "vector") -> np.ndarray:
    return decode_matrix([data], name)[0]


def encode_polymat(P: MatrixPolynomial) -> list:
    return [encode_matrix(c) for c in P.coeffs]


def decode_polymat(data, name: str = "matrix polynomial") -> MatrixPolynomial:
    if not isinstance(data, list) or not data:
        raise ValueError(f"{name}: matrix polynomial must be a non-empty array of matrices")
    return MatrixPolynomial(tuple(decode_matrix(c, f"{name}[{j}]") for j, c in enumerate(data)))


def _object(obj, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    return obj


def _check_format(obj: dict, what: str):
    version = _object(obj, what).get("format")
    if type(version) is not int or version != FORMAT_VERSION:  # true == 1 in Python
        raise ValueError(f"{what} must carry \"format\": {FORMAT_VERSION}")


def problem_to_dict(R: Realization, options: dict | None = None) -> dict:
    out = {
        "format": FORMAT_VERSION,
        "realization": {
            "A": encode_polymat(R.A),
            "B": encode_matrix(R.B),
            "C": encode_matrix(R.C),
            "D": encode_polymat(R.D),
        },
    }
    if options:
        out["options"] = options
    return out


def problem_from_dict(obj: dict) -> tuple[Realization, dict]:
    _check_format(obj, "problem file")
    try:
        raw = _object(obj["realization"], "realization")
        R = Realization(
            A=decode_polymat(raw["A"], "realization.A"),
            B=decode_matrix(raw["B"], "realization.B"),
            C=decode_matrix(raw["C"], "realization.C"),
            D=decode_polymat(raw["D"], "realization.D"),
        )
    except KeyError as exc:
        raise ValueError(f"problem file misses field {exc}") from exc
    return R, _object(obj.get("options", {}), "options")


def pencil_to_dict(P: AnsatzPencil) -> dict:
    return {
        "format": FORMAT_VERSION,
        "X": encode_matrix(P.X),
        "Y": encode_matrix(P.Y),
        "dims": {"m": P.dims.m, "n": P.dims.n, "k": P.dims.k, "r": P.dims.r},
        "space": P.space,
        "v": encode_vector(P.v),
        "w": encode_vector(P.w),
    }


def _dim(dims: dict, key: str) -> int:
    value = dims[key]
    if type(value) is not int:  # not bool either
        raise ValueError(f"dims.{key} must be an integer")
    return value


def pencil_from_dict(obj: dict) -> AnsatzPencil:
    _check_format(obj, "pencil file")
    try:
        raw = _object(obj["dims"], "dims")
        dims = BlockDims(**{key: _dim(raw, key) for key in ("m", "n", "k", "r")})
        space = obj["space"]
        if not isinstance(space, str) or space not in SPACES:
            raise ValueError(f"space: unknown space tag {space!r}")
        return AnsatzPencil(
            X=decode_matrix(obj["X"], "X"),
            Y=decode_matrix(obj["Y"], "Y"),
            dims=dims,
            space=space,
            v=decode_vector(obj["v"], "v"),
            w=decode_vector(obj["w"], "w"),
        )
    except KeyError as exc:
        raise ValueError(f"pencil file misses field {exc}") from exc


@contextmanager
def _json_tree(what: str):
    """Build or walk a JSON tree of ``what`` with the cyclic garbage collector paused (the
    tree is acyclic and freed by reference counting), then restore the collector's state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    except RecursionError as exc:  # the C decoder recurses once per nesting level
        raise ValueError(f"{what} is nested too deeply for JSON") from exc
    finally:
        if enabled:
            gc.enable()


def load_problem(path) -> tuple[Realization, dict]:
    with open(path, "r", encoding="utf-8") as fh, _json_tree("problem file"):
        return problem_from_dict(json.load(fh))  # the tree is freed before the pause ends


def load_pencil(path) -> AnsatzPencil:
    with open(path, "r", encoding="utf-8") as fh, _json_tree("pencil file"):
        return pencil_from_dict(json.load(fh))


def save_json(path, obj: dict):
    """Write ``obj`` as compact JSON (one line, the C encoder).

    Top-level fields are encoded and written one at a time, so no string
    of the whole document is held; the bytes equal ``json.dumps(obj)``.
    Values are trees, as this module's encoders build them: with no circular
    reference check, a cycle raises RecursionError.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            value = json.dumps(value, check_circular=False)
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: {value}")
        fh.write("}\n")


def save_pencil(path, P: AnsatzPencil):
    """Write ``P`` as a pencil file, the bytes of ``save_json(path, pencil_to_dict(P))``."""
    with _json_tree("pencil file"):
        save_json(path, pencil_to_dict(P))
