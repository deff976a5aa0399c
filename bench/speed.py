"""Machine-speed calibration for the timed metrics.

The machine this benchmark was built on is a shared VM. Its vCPUs switch
between a fast and a slow state, and the share of slow time drifts in
regimes lasting minutes, by about 20% (NOTES.md). No window a run can afford
averages that out. Each timed sample is therefore paired with a fixed
pure-Python loop, timed right before and after it in the same process, and
reported at the reference speed:

    scaled = raw * REFERENCE_S / calibration

A program change moves ``raw`` and leaves ``calibration`` alone; a change of
machine speed moves both.
"""

from __future__ import annotations

import time

# mean time of one calibration loop on the machine the benchmark was built
# on, in its fast state; fixed, so scaled times stay comparable across commits
REFERENCE_S = 0.007
_LOOPS = 12
_N = 100_000


def calibrate() -> float:
    """Mean time of a fixed pure-Python loop: this moment's machine speed."""
    total = 0.0
    for _ in range(_LOOPS):
        t0 = time.perf_counter()
        s = 0
        for i in range(_N):
            s += i * i
        total += time.perf_counter() - t0
    return total / _LOOPS


def scale(raw: float, before: float, after: float) -> float:
    """``raw`` at the reference speed, from the calibrations around it."""
    return raw * REFERENCE_S / (0.5 * (before + after))
