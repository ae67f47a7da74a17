"""``python -m repro`` dispatches to the CLI."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    code = main()
    # A normal return skips interpreter teardown (20-30 ms per command, most
    # of it unloading numpy): the CLI has closed its runner, pool and store,
    # so only the standard streams are left to flush.  An exception or a
    # ``SystemExit`` raised inside ``main`` never reaches this line.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
