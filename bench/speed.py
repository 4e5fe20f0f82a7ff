"""The machine's current speed, from a fixed kernel that does not use reconkit.

On a shared host, the speed of one core drifts by a fifth or more over
minutes, so plain wall times of the same code spread too widely to compare
two commits.  Each worker therefore times this kernel just before and just
after its timed phase.  Every time the benchmark reports is multiplied by
``REFERENCE_S / probe``, which turns it into seconds on a machine where the
probe takes ``REFERENCE_S``.  The kernel uses the same ingredients as
reconkit's hot loops: bit operations on adjacency masks, small tuples,
sorting and dict counting.  It must not call reconkit, or a faster reconkit
would also speed up the yardstick.
"""

from __future__ import annotations

import random
import time

# Median probe time on the shared 2-vCPU virtual machine (Intel Xeon,
# Python 3.11.7) on which the benchmark was defined.
REFERENCE_S = 0.030

_N = 22
_rng = random.Random(12345)
_ROWS = [0] * _N
for _v in range(_N):
    for _u in range(_v + 1, _N):
        if _rng.random() < 0.25:
            _ROWS[_v] |= 1 << _u
            _ROWS[_u] |= 1 << _v


def _kernel() -> dict:
    """Breadth-first layer sizes from every vertex, counted by signature."""
    counts: dict = {}
    for start in range(_N):
        seen = frontier = 1 << start
        sig = []
        while frontier:
            grown = 0
            m = frontier
            while m:
                low = m & -m
                grown |= _ROWS[low.bit_length() - 1]
                m ^= low
            frontier = grown & ~seen
            seen |= frontier
            sig.append(frontier.bit_count())
        key = tuple(sorted(sig))
        counts[key] = counts.get(key, 0) + 1
    return counts


def probe_s() -> float:
    """Fastest of three timings of 320 kernel calls (about 30 ms each)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(320):
            _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
