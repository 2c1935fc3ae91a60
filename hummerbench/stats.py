"""Summary statistics shared by the runner and the comparison tool."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The median, or 0.0 for no samples (a layer that never ran)."""
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    middle = median(values)
    if middle == 0:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(middle)


def percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """The nearest-rank *fraction* percentile, or ``None`` when unsupported.

    A percentile is supported only when at least :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it, so a p95 needs 200 samples and a p50 needs 20.
    """
    count = len(values)
    # the epsilon keeps float error from pushing an exact rank up by one
    rank = max(1, math.ceil(fraction * count - 1e-9))
    if count - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest supported percentile as ``(fraction, value)``, if any."""
    count = len(values)
    if count <= MIN_TAIL_SAMPLES:
        return None
    rank = count - MIN_TAIL_SAMPLES
    return rank / count, sorted(values)[rank - 1]
