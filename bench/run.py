"""Benchmark entry point.

    python3 bench/run.py --workload {cli_desk,sweep,large_solve} --seed N \\
        --seconds T --trace {0,1}

Run from the repository root.  Prints notes, then as its last line one
JSON object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).  Exits 2 without a result when the
package source is not under ./src.
"""

import argparse
import json
import os
import sys

# Fixed before numpy loads, for this process and the CLI processes it starts.
from harness import BLAS_THREADS, BLAS_VARS, SRC

for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_desk", "sweep", "large_solve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "syspencils", "__init__.py")):
        print(f"error: no syspencils package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy
    import scipy

    from workloads import WORKLOADS

    print(f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
          f"BLAS threads {BLAS_THREADS}")
    result, notes = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
