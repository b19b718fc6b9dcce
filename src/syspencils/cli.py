"""Command line front end.

Verbs: build | verify | solve | sample | dim.  Reports go to standard
output as JSON.  Exit codes: 0 pass, 1 verified fail, 2 input error,
3 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

from . import spaces
from .basis import BasisSpec, _change_basis, tilde_to_monomial
from .core import BlockDims
from .errors import PencilError
from .io import (
    _json_tree,
    decode_matrix,
    decode_vector,
    encode_float,
    encode_vector,
    load_pencil,
    load_problem,
    save_pencil,
)
from .spectra import (
    default_tol_res,
    recover_left,
    recover_right,
    solve_pencil,
    verify_linearization,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_COMPUTE = 3

#: Build source -> builder of the pencil from the realization.
_BUILDERS = {"c1": spaces.build_C1, "c2": spaces.build_C2, "dl": spaces.build_DL,
             "sym": spaces.build_symmetric, "herm": spaces.build_hermitian}

#: Spaces an explicit ansatz can be built in; every other source fixes its own.
_EXPLICIT_SPACES = (spaces.SPACE_L1S, spaces.SPACE_L1G, spaces.SPACE_L2G)


def _emit(obj):
    # strict JSON (RFC 8259); the trees come from this module's encoders, never cyclic
    sys.stdout.write(json.dumps(obj, allow_nan=False, check_circular=False) + "\n")


def _build_explicit(R, space, options):
    ansatz = options.get("ansatz")
    if not isinstance(ansatz, dict):
        raise ValueError("explicit source needs an \"ansatz\" object in the problem options")
    v = decode_vector(ansatz.get("v"), "options.ansatz.v")
    w = decode_vector(ansatz.get("w"), "options.ansatz.w")
    W = decode_matrix(ansatz["W"], "options.ansatz.W") if ansatz.get("W") else None
    W1 = decode_matrix(ansatz["W1"], "options.ansatz.W1") if ansatz.get("W1") else None
    m, n, k, r = R.m, R.n, R.k, R.r
    for name, a, shape in (("v", v, (m,)), ("w", w, (k,)), ("W", W, (m * n, (m - 1) * n)),
                           ("W1", W1, (k * r, (k - 1) * r))):
        if a is not None and a.shape != shape:
            raise ValueError(f"options.ansatz.{name} must have shape {shape}, got {a.shape}")
    if space == spaces.SPACE_L2G:
        return spaces.build_pencil_L2(R, v, w, W, W1)
    return spaces.build_pencil_L1(R, v, w, W, W1, space=space)


# argparse reports a ValueError or ArgumentTypeError from these as an
# error in the flag (exit 2)
def _positive_finite(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _parse_basis(token: str, d: int):
    if token == "chebyshev":
        return BasisSpec(kind="chebyshev_T", d=d)
    if token.startswith("newton:"):
        nodes = [complex(part) for part in token[len("newton:"):].split(",") if part]
        if len(nodes) < d - 1:
            raise ValueError(f"newton basis needs at least {d - 1} nodes for degree {d}")
        return BasisSpec(kind="newton", d=d, nodes=tuple(nodes[: d - 1]))
    raise ValueError(f"unknown basis {token!r}")


@contextmanager
def _reading():
    """Library errors raised while reading input are input errors (exit 2)."""
    try:
        yield
    except PencilError as exc:
        raise ValueError(str(exc)) from exc


def _check_space(space: str, R) -> None:
    """The l1s identity pads the bottom partition with I_{r x n}: ``--space l1s`` needs r <= n."""
    if space == spaces.SPACE_L1S and R.r > R.n:
        raise ValueError(f"--space {space} needs r <= n, got r={R.r}, n={R.n}")


def _basis_specs(basis: str, P, R):
    """The (A, D) basis specs a pencil file is expressed in; None when monomial."""
    if basis == "monomial":
        return None
    if P.space != spaces.SPACE_L1G:
        raise ValueError("non-monomial bases apply to first-space pencils only")
    return _parse_basis(basis, R.m), _parse_basis(basis, R.k)


def cmd_build(args) -> int:
    if args.space is not None and args.source != "explicit":
        raise ValueError(f"--space applies to --source explicit only; "
                         f"{args.source!r} fixes its own space")
    with _reading():  # an explicit pencil is input: the problem file fixes all of it
        R, options = load_problem(args.input)
        if args.source == "explicit":
            _check_space(args.space, R)
            P = _build_explicit(R, args.space or spaces.SPACE_L1G, options)
    if args.source != "explicit":
        P = _BUILDERS[args.source](R)
    with _reading():  # a singular --basis, as on verify and solve
        specs = _basis_specs(args.basis, P, R)
        del R  # and the pencil it keeps: not read again while the file is written
        if specs:
            P = _change_basis(P, *specs, to_monomial=False)
    save_pencil(args.output, P)
    return EXIT_PASS


def _load_pencil_and_problem(args):
    """The pencil (in the monomial basis) and realization a verb works on."""
    with _reading():
        P = load_pencil(args.pencil)
        R, _ = load_problem(args.input)
        if P.dims != R.dims:
            raise ValueError(f"pencil dims {P.dims} do not match problem dims {R.dims}")
        specs = _basis_specs(args.basis, P, R)
        return (tilde_to_monomial(P, *specs) if specs else P), R


def cmd_verify(args) -> int:
    P, R = _load_pencil_and_problem(args)
    scale = 0.5 if args.strict else 1.0
    tol_res = default_tol_res(P, R) if args.tol is None else args.tol
    report = verify_linearization(P, R, tol_res=tol_res * scale, tol_eig=args.tol_eig * scale)
    _emit(report.to_dict())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_solve(args) -> int:
    P, R = _load_pencil_and_problem(args)
    # second-space pencils carry y in their left eigenvectors, the others x
    # in their right ones; only that side is computed
    left = P.space == spaces.SPACE_L2G
    recover = recover_left if left else recover_right
    with _json_tree("solve report"):  # N vectors of [re, im] lists, built and printed
        eigs = solve_pencil(P.X, P.Y, left=left, right=not left)
        vecs = eigs.left if left else eigs.right
        out = dict(eigenvalues=encode_vector(eigs.eigenvalues), eigenvectors=[],
                   system_residuals=[])
        for i, lam in enumerate(eigs.eigenvalues):
            try:
                rec = recover(vecs[:, i], P.dims, R, lam)
                out["eigenvectors"].append(encode_vector(rec.x))
                out["system_residuals"].append(encode_float(rec.system_residual))
            except PencilError:
                out["eigenvectors"].append(None)
                out["system_residuals"].append(None)
        _emit(out)
    return EXIT_PASS


def cmd_sample(args) -> int:
    with _reading():
        R, _ = load_problem(args.input)
    _check_space(args.space, R)
    passes = []
    for i in range(args.count):
        P = spaces.sample_space(R, seed=args.seed + i, space=args.space)
        if args.output:
            save_pencil(f"{args.output}_{i:03d}.json", P)
        passes.append(verify_linearization(P, R).passed)
    summary = {
        "count": args.count,
        "pass_rate": (sum(passes) / len(passes)) if passes else None,
        "passes": passes,
        "seed": args.seed,
    }
    _emit(summary)
    return EXIT_PASS


def cmd_dim(args) -> int:
    with _reading():
        dims = BlockDims(args.m, args.n, args.k, args.r)
    _emit(spaces.dim_space(dims))
    return EXIT_PASS


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syspencils",
        description="Build, sample and verify ansatz-space pencils of "
                    "state-space system matrices and transfer functions.")
    sub = parser.add_subparsers(dest="verb", required=True)
    files = argparse.ArgumentParser(add_help=False)  # what verify and solve read
    files.add_argument("--pencil", required=True)
    files.add_argument("--input", required=True)
    files.add_argument("--basis", default="monomial",
                       help="basis the pencil file is expressed in")

    p = sub.add_parser("build", help="build a pencil from a problem file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--space", choices=_EXPLICIT_SPACES,
                   help=f"space of an explicit pencil (default {spaces.SPACE_L1G})")
    p.add_argument("--source", default="c1", choices=sorted([*_BUILDERS, "explicit"]))
    p.add_argument("--basis", default="monomial",
                   help="monomial | chebyshev | newton:<comma separated nodes>")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", parents=[files], help="verify a pencil against a problem")
    p.add_argument("--tol", type=_positive_finite, default=None,
                   help="ansatz residual tolerance (default scale-aware)")
    p.add_argument("--tol-eig", dest="tol_eig", type=_positive_finite, default=1e-6)
    p.add_argument("--strict", action="store_true", help="halve both tolerances, defaults too")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", parents=[files], help="eigenvalues and recovered eigenvectors")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sample", help="sample pencils and report the verify pass rate")
    p.add_argument("--input", required=True)
    p.add_argument("--count", type=_non_negative_int, default=10)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--space", default=spaces.SPACE_L1G, choices=sorted(spaces.SPACES))
    p.add_argument("--output", default=None,
                   help="prefix for the written pencil files")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("dim", help="dimension of the first ansatz space")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_dim)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, PencilError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE if isinstance(exc, PencilError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
