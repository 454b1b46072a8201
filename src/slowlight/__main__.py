"""``python -m slowlight`` and the installed ``slowlight`` command.

A CLI process runs one subcommand and exits.  The objects that importing
numpy and slowlight leave behind (about 22k) live until then, so ``run``
moves them to the collector's permanent generation before the subcommand
starts, and the collections that interpreter shutdown runs skip them.
``cli.main`` neither freezes nor exits: it is also called in-process, many
times.
"""

import gc
import sys

from . import cli


def run() -> int:
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    sys.exit(run())
