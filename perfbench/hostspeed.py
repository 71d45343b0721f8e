"""Host speed, measured by a fixed piece of reference work.

On a shared host the benchmark's processor can run 1.5-1.9 times slower for
stretches of tens of seconds to minutes, in user time as well as in wall
time, because other machines load the same physical cores. A median over one
run cannot remove a slowdown that lasts longer than the run. So every time
the benchmark reports is scaled to a nominal host speed: it is multiplied by
``REFERENCE_S / t``, where ``t`` is the time of the reference work measured
in the same process right before and right after the timed span.

The reference work mixes what the workloads do: integer arithmetic in
interpreted Python, parsing and formatting text records, a numpy sort with
conversion to Python floats, one pass over an array larger than the
processor caches, and a block of random draws. It never calls ghzbell, so it is the same on
every commit and a change to the program moves only the numerator.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# The reference work's time on an unloaded host; it only sets the scale.
REFERENCE_S = 0.040


@functools.lru_cache(maxsize=1)
def _inputs() -> tuple[np.ndarray, np.ndarray, list[str]]:
    rng = np.random.default_rng(20261018)
    rows = [" ".join(str(v) for v in row) for row in rng.integers(-1, 2, size=(3000, 8)).tolist()]
    return rng.random(200_000), rng.random(4_000_000), rows


def reference_seconds() -> float:
    """Time of one fixed unit of reference work."""
    small, large, rows = _inputs()
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    parsed = [[int(tok) for tok in row.split()] for row in rows]
    "\n".join(" ".join(str(v) for v in row) for row in parsed)
    np.sort(small).tolist()
    float(large.sum())
    np.random.default_rng(total).random((65536, 8)) < 0.5
    return time.perf_counter() - start


def speed_factor(*reference_times: float) -> float:
    """Factor that scales a time measured among these reference times to nominal speed."""
    return REFERENCE_S * len(reference_times) / sum(reference_times)
