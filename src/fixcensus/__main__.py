"""The one process entry: ``python -m fixcensus`` and the console script call
``_exit_run``, which runs ``cli.main``, the entry the tests call in process.
Once main returns, or exits with an int or None code (--help, usage errors),
the command's files are closed: ``_exit_run`` flushes stdout and stderr and
skips the interpreter's teardown by os._exit; a fault or failed flush does not."""

import os
import sys

from .cli import main


def _exit_run() -> None:
    try:
        code = main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a stream that cannot be written or is closed
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    _exit_run()
