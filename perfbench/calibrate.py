"""Host-speed calibration probe.

On a shared host the simulator's speed drifts by 20-40% over tens of
seconds as neighbours come and go, which swamps any change a commit can
make.  The benchmark therefore runs this fixed probe — the same mix of
pure-Python dict/int work and small numpy operations as the simulator's
hot loops — immediately before and after every timed region, and divides
the region's host time by the mean of the two probe times.  Multiplying
by :data:`NOMINAL_PROBE_S` turns the ratio back into seconds: a
"calibrated second" is a host second on a machine whose probe takes
``NOMINAL_PROBE_S``.  The probe is part of the benchmark, so it is the
same code on both sides of any comparison.
"""

import time

import numpy as np

#: The probe's uncontended duration on the host the benchmark was defined
#: on (2-core x86-64 container, CPython 3.11, numpy 2.4).  A unit scale
#: only: comparisons between commits divide it out.
NOMINAL_PROBE_S = 0.0135


def probe() -> float:
    """Run the probe once; returns its host seconds."""
    started = time.perf_counter()
    table = {}
    total = 0
    for i in range(60_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        total += key
    values = np.arange(200_000)
    for _ in range(5):
        values = (values * 3 + total) & 0xFFFFF
    return time.perf_counter() - started


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time in calibrated seconds, given the probe
    times measured just before and just after it."""
    return seconds * NOMINAL_PROBE_S * 2 / (before + after)
