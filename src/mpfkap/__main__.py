import gc
import sys

from .cli import main


def run() -> None:
    """`python -m mpfkap` and the `mpfkap` script: run the CLI, then exit with its code.

    gc.freeze() moves every object into the permanent generation, which
    the cycle collection at interpreter shutdown skips; that collection
    is most of a short process's teardown.  Nothing is left to finalize:
    main returns only after every file and socket it opened is closed
    (every file written in a wire.replacing block, every file read in a
    with block, the transport in its close()).  cli.main itself,
    which tests call in process, leaves the collector alone.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
