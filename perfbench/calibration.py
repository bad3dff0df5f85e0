"""Machine-speed calibration: a fixed pure-Python loop timed around each step.

The shared machines this benchmark runs on change speed by a third or more
within seconds and between minutes (measured on a 2-vCPU Xeon VM: one-second
windows of this loop ranged from 3.8 to 6.6 ms per round, with no steal
time reported). A rep times this loop before its first step and after every
step, and reports each step's time scaled to the reference speed:

    scaled = step seconds * REFERENCE_ROUND_S / (mean round time around the step)

i.e. the seconds the step would take on a machine that runs one round in
REFERENCE_ROUND_S. The loop does no confmon work, so a slower program still
reads slower by the same share. The unscaled times are kept in the report.
"""

from __future__ import annotations

import heapq
import time

REFERENCE_ROUND_S = 0.005
ROUNDS = 50  # about 0.25 s at the reference speed


def _round() -> int:
    # heap and dict work on small tuples, as in the A* search, with bounded memory
    heap = []
    seen = {}
    for i in range(4000):
        key = (i * 7919) % 10007
        heapq.heappush(heap, (key, i, (i & 7, i & 3)))
        seen[(key & 1023, i & 7)] = i
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(seen)


def calibrate() -> float:
    """Seconds per round of the calibration loop, averaged over ROUNDS rounds."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        _round()
    return (time.perf_counter() - t0) / ROUNDS


def scaled(seconds: float, round_s: float) -> float:
    """``seconds`` measured while a round took ``round_s``, at the reference speed."""
    return seconds * REFERENCE_ROUND_S / round_s
