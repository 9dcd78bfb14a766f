"""Run the quivergrass CLI with the layer tracer installed.

    python3 bench/cli_entry.py TRACE_OUT CLI_ARGS...

Traced cli runs of the benchmark start their children here instead of at
``python -m quivergrass.cli``.  The entry times the package import, installs
the tracer, calls ``quivergrass.cli.main(CLI_ARGS)``, writes the spans and
counters to TRACE_OUT and exits with main's exit code.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import quivergrass.cli
    import_s = time.perf_counter() - t0
    import tracer as tracing
    tr = tracing.Tracer()
    tracing.install(tr)
    code = quivergrass.cli.main(argv)
    if code:
        tr.count["cli.exit_nonzero"] += 1
    tr.write(out, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
