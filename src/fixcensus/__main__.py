"""The one process entry: ``python -m fixcensus`` and the console script call ``run``.

``run`` freezes what importing ``cli`` loaded (the site modules, argparse,
cli, dynamics, ff), which lives until exit, so the garbage collector's full
passes during the run and at shutdown skip it.  ``cli.main`` is the
in-process entry and leaves the collector alone.
"""

import gc
import sys

from .cli import main


def run() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
