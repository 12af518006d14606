"""Reference-speed seconds: timings corrected for host speed drift.

On a shared 2-core host the speed of the cores drifts by tens of percent
over seconds to minutes: a fixed pure-Python loop took between 1.0x and
1.9x its fastest time within 90 s. So a fixed probe is timed right before
and right after every timed `cli.main` call and every timed interpreter
start, and the interval is reported as

    wall seconds * REFERENCE_PROBE_S / mean(probe before, probe after)

the seconds it would have taken on a host where the probe reads
REFERENCE_PROBE_S. In three sets of ten 30 s runs per workload on that
host, the IQR over median of the run medians was 0.11-0.32 in wall
seconds and 0.02-0.14 in reference seconds. When the host sped up by
about 1.6x between two sets, wall medians fell by up to 40% and reference
medians moved by -12% to +7%. The probe did not narrow the spread of
interpreter start times within a set, but it removed most of their 20%
drift between two sets. The wall seconds are printed beside the
reference ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

ARITHMETIC_ITERATIONS = 1_000_000
INDEXING_ITERATIONS = 300_000
_TABLE_MASK = (1 << 12) - 1
# about the probe's median reading on the 2-core Xeon the benchmark was
# defined on, so reference seconds read close to wall seconds there
REFERENCE_PROBE_S = 0.11


def probe() -> float:
    """Geometric mean of the wall seconds of two fixed interpreter-bound
    loops: integer arithmetic, and scalar indexing into a small ndarray
    (the pattern of `unwrap_phase`)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(ARITHMETIC_ITERATIONS):
        x += i * i
    t1 = time.perf_counter()
    table = np.zeros(_TABLE_MASK + 1)
    j, y = 0, 0.0
    for _ in range(INDEXING_ITERATIONS):
        j = (j * 1103515245 + 12345) & _TABLE_MASK
        y += table[j]
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


def to_reference(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * REFERENCE_PROBE_S * 2.0 / (probe_before + probe_after)
