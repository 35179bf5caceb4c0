"""Run one mpfkap CLI command with spans at the package's layer boundaries.

    python3 perfbench/party.py TRACE_OUT SPAWN_TIME -- CLI_ARGS...

SPAWN_TIME is the CLOCK_MONOTONIC time at which the parent started this
process.  This script records its own entry time, imports mpfkap from the
checkout's src/, wraps the boundaries listed in layers.py, calls
mpfkap.cli.main with CLI_ARGS (the same arguments an untraced run passes
to `python -m mpfkap`), then writes the spans to TRACE_OUT as JSON lines
and exits with main's exit code.
"""

import time

ENTRY = time.clock_gettime(time.CLOCK_MONOTONIC)

import os  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402


def main() -> int:
    trace_out, spawn_time, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: party.py TRACE_OUT SPAWN_TIME -- CLI_ARGS...")
    tracer = layers.Tracer()
    tracer.record("cli.startup", float(spawn_time), ENTRY)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    start = layers.now()
    import mpfkap.cli

    tracer.record("cli.import", start, layers.now())
    missing = layers.install(tracer)
    idx = tracer.begin("cli.main")
    try:
        return mpfkap.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.end(idx)
        tracer.dump(trace_out, missing)


if __name__ == "__main__":
    sys.exit(main())
