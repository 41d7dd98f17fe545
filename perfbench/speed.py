"""Machine-speed reference for times measured on a shared machine.

On a machine shared with other tenants, the same exact-arithmetic work
can take 25 % more or less time from one minute to the next, for CPU
time as much as for wall time.  The benchmark therefore times a fixed
kernel next to the work it measures and reports times at reference
speed: measured seconds times REFERENCE_S over the kernel's time.  The
kernel does what the solver does most, exact Gauss-Jordan elimination
over stdlib Fractions, and uses nothing from auctionlp, so a change to
the program cannot change it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's median wall time on the machine the benchmark was written
# on (2 cores, Python 3.11, quiet); it only sets the scale of the
# reported times.
REFERENCE_S = 0.010

_SIZE = 12


def _matrix():
    state = 12345
    rows = []
    for _ in range(_SIZE):
        row = []
        for _ in range(_SIZE + 1):
            state = (state * 1103515245 + 12345) % 2**31
            row.append(Fraction(state % 19 - 9, state % 7 + 1))
        rows.append(row)
    return rows


def kernel() -> Fraction:
    rows = _matrix()
    for c in range(_SIZE):
        r = next((k for k in range(c, _SIZE) if rows[k][c]), None)
        if r is None:
            continue
        rows[c], rows[r] = rows[r], rows[c]
        prow = rows[c]
        inv = 1 / prow[c]
        prow[:] = [v * inv for v in prow]
        for k, row in enumerate(rows):
            f = row[c]
            if k != c and f:
                row[:] = [a - f * b for a, b in zip(row, prow)]
    return sum(row[-1] for row in rows)


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0


def factor(samples, index: int, width: int = 2) -> tuple[float, float]:
    """(wall, cpu) scale factors to reference speed from the median of
    the kernel samples within `width` places of `index`."""
    window = samples[max(0, index - width) : index + width + 1]
    wall = statistics.median(s[0] for s in window)
    cpu = statistics.median(s[1] for s in window)
    return REFERENCE_S / wall, REFERENCE_S / cpu


def settle(count: int = 5) -> list:
    """Several kernel samples in a row, e.g. around set-up."""
    return [sample() for _ in range(count)]
