"""Machine-speed calibration.

Shared machines change speed by up to a factor of two within seconds, far
more than the changes this benchmark has to resolve.  So every timed job is
bracketed by a fixed loop of builtin integer and dict operations (no import,
so it cannot warm anything the package imports), and its wall time is
scaled by ``REFERENCE_S / loop time``: seconds on a machine where the loop
takes ``REFERENCE_S``.  The loop is benchmark code, so no change to the
package can move it, while a change to the package moves the scaled time
exactly as it moves the wall time.
"""

from __future__ import annotations

from time import perf_counter

LOOP_ITERATIONS = 4000
REFERENCE_S = 0.0025


def _loop(n: int) -> int:
    acc, table = 1, {}
    for i in range(n):
        key = (i * 2654435761) & 511
        table[key] = table.get(key, 0) + (acc >> 61)
        acc = (acc * 3 + i) % (1 << 127)
    return acc + len(table)


def loop_seconds() -> float:
    """Wall seconds for one run of the calibration loop."""
    start = perf_counter()
    _loop(LOOP_ITERATIONS)
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, from the loop times around them."""
    return seconds * 2 * REFERENCE_S / (before + after)
