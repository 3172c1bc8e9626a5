"""Percentiles and nonparametric confidence intervals.

The paper reports "the median with 99 % confidence intervals (CI)" over
one-second throughput windows; :func:`median_with_ci` reproduces that with
the standard distribution-free order-statistic interval for the median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def percentile(data: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0–100) by linear interpolation.

    Matches numpy's default ("linear") method but has no array dependency
    so protocol code can use it too.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not data:
        raise ValueError("percentile of empty data")
    ordered = sorted(data)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (p / 100.0)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[low] == ordered[high]:
        # Equal neighbours: interpolating would only add rounding error
        # (a subnormal halved underflows to 0.0, below both of them).
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class MedianCI:
    """A median estimate with a distribution-free confidence interval."""

    median: float
    low: float
    high: float
    confidence: float

    @property
    def half_width_fraction(self) -> float:
        """CI half-width relative to the median (paper: within 3 %)."""
        if self.median == 0:
            return 0.0
        return max(self.median - self.low, self.high - self.median) / abs(
            self.median
        )


# Two-sided normal quantiles for the confidence levels experiments use.
_Z_BY_CONFIDENCE = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def median_with_ci(data: Sequence[float], confidence: float = 0.99) -> MedianCI:
    """Median with an order-statistic (binomial) confidence interval.

    The interval is ``[x_(l), x_(u)]`` with ranks from the normal
    approximation ``n/2 ∓ z·√n/2``; exact for large n, conservative for
    small n.  For n < 3 the interval degenerates to the data range.
    """
    if confidence not in _Z_BY_CONFIDENCE:
        raise ValueError(
            f"confidence must be one of {sorted(_Z_BY_CONFIDENCE)}, got {confidence}"
        )
    if not data:
        raise ValueError("median_with_ci of empty data")
    ordered = sorted(data)
    n = len(ordered)
    mid = percentile(ordered, 50)
    if n < 3:
        return MedianCI(mid, ordered[0], ordered[-1], confidence)
    z = _Z_BY_CONFIDENCE[confidence]
    spread = z * math.sqrt(n) / 2.0
    lower_rank = max(0, math.floor(n / 2.0 - spread))
    upper_rank = min(n - 1, math.ceil(n / 2.0 + spread) - 1)
    return MedianCI(mid, ordered[lower_rank], ordered[upper_rank], confidence)
