"""Percentiles and the tail rule used for per-operation latency."""
from __future__ import annotations

import math
import statistics

LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_ABOVE = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least MIN_ABOVE of `samples` above it.

    100, the maximum, when even the median has fewer than MIN_ABOVE above it.
    """
    for p in reversed(LADDER):
        if math.floor(samples * (100.0 - p) / 100.0 + 1e-9) >= MIN_ABOVE:
            return p
    return 100.0


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
