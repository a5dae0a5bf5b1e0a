"""Run one `jpmsim` subcommand in a fresh process with tracing on.

Usage: python tracehook.py SPANS.json SUBCOMMAND [jpmsim options...]

Times `import jpmsim.cli` as the import layer's span, wraps every layer
module's public functions, runs the CLI's `main`, and writes the spans
plus the count of scipy modules loaded to SPANS.json on exit.  The
process exit code is the CLI's.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.task = "child"
    index = tracer.open("import.jpmsim_cli", "import", T0)
    import jpmsim.cli

    tracer.close(index)
    tracing.install(tracer)
    code = jpmsim.cli.main(argv)
    scipy = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    tracer.dump(spans_path, {"t0": T0, "t_end": time.perf_counter(), "argv": argv, "scipy": scipy})
    return code


if __name__ == "__main__":
    sys.exit(main())
