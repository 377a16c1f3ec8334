"""Percentiles and small summaries used by every workload.

Percentiles use the nearest-rank definition: the q-th percentile of ``n``
sorted samples is the sample at rank ``ceil(q/100 * n)``, so exactly
``n - ceil(q/100 * n)`` samples lie beyond it.  A percentile is only
reported where at least :data:`MIN_BEYOND` samples lie beyond it; below
that it describes a handful of outliers, not a population.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Candidate percentiles, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the q-th percentile."""
    return n - rank(n, q)


def supported_percentile(n: int, ladder: Sequence[float] = LADDER) -> Optional[float]:
    """The highest percentile in ``ladder`` with >= MIN_BEYOND samples beyond it."""
    for q in ladder:
        if n >= 1 and beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
