"""The process entry: ``python -m modcert`` and the installed ``modcert`` script.

Both launchers start a run through :func:`run`.  ``modcert.cli.main`` stays
the in-process API and never touches the collector.
"""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the command line of this process and exit with its code.

    A one-shot process keeps everything it imported until it exits, so the
    import-time heap is frozen out of every later collection, the full ones
    that the interpreter runs at shutdown included.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
