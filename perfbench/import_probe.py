"""Print how long ``import freemoments`` takes in this fresh interpreter.

The time is at reference speed (``speed.py``).  Nothing but the calibration
loop is imported first, so the figure includes every standard-library
module the package pulls in, as it does for a user's first call.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
import speed  # noqa: E402


def main() -> int:
    sys.path.insert(0, SRC)
    before = speed.loop_seconds()
    start = perf_counter()
    import freemoments

    elapsed = perf_counter() - start
    after = speed.loop_seconds()
    if not os.path.abspath(freemoments.__file__).startswith(SRC + os.sep):
        print(f"freemoments was imported from {freemoments.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    print(speed.scaled(elapsed, before, after))
    return 0


if __name__ == "__main__":
    sys.exit(main())
