"""Property tests: bit-exact JSON round trips and a CLI that never crashes."""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from syspencils import BlockDims, MatrixPolynomial, Realization, build_C1  # noqa: E402
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
from syspencils.spaces import SPACE_L1G, AnsatzPencil  # noqa: E402

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
