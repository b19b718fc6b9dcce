"""Run one syspencils CLI verb in this fresh interpreter, recording spans.

Usage: python traced_cli.py SPANS_FILE PENCIL_ID VERB [ARGS...]

Times the import of ``syspencils.cli``, wraps the traced public
functions, runs ``syspencils.cli.main`` on the verb and its arguments,
writes the spans to SPANS_FILE and exits with the verb's exit code.
"""

import sys
import time

from tracing import IMPORT_SPAN, Tracer


def main() -> int:
    spans_file, pencil, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.pencil = pencil
    t0 = time.perf_counter()
    import syspencils.cli
    tracer.record(IMPORT_SPAN, t0, time.perf_counter())
    tracer.install()
    try:
        return syspencils.cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
