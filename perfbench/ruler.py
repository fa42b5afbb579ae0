"""The benchmark's own ruler: clock, quantiles and resident-memory readings.

Nothing here comes from ``repro.bench`` or ``repro.telemetry``, so a change
to the program's measurement code cannot change how the program is measured.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time

clock = time.perf_counter

#: A tail percentile is reported only with at least this many samples
#: beyond it; each metric's name fixes its percentile.
MIN_BEYOND = 10


def quantile(values, q: float) -> float:
    """The *q*-quantile (0..1) with linear interpolation between ranks."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def samples_needed(percentile: float) -> int:
    """Samples for *percentile* to have :data:`MIN_BEYOND` above it."""
    return math.ceil(MIN_BEYOND / (1.0 - percentile / 100.0) - 1e-9)


def rss_bytes() -> int:
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        # No procfs: the peak is the closest portable reading.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def settled_rss_bytes() -> int:
    """RSS after a full collection, so garbage awaiting the cycle collector
    does not count as memory in use."""
    gc.collect()
    return rss_bytes()
