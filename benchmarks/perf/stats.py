"""The few statistics the harness reports, each with its sample count."""

from __future__ import annotations

import statistics
from statistics import median
from typing import Iterable, Mapping, Optional, Sequence

#: A percentile is printed only when this many samples lie beyond it.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them
    — the same estimator the acceptance driver uses for its spreads."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    return statistics.geometric_mean(vals) if vals else 0.0


def median_ratio(a: Mapping[str, Sequence[float]], b: Mapping[str, Sequence[float]]) -> float:
    """Median over the ops both carry of (median of ``a``'s samples ÷
    median of ``b``'s): how much slower ``a`` ran the same ops.  A ratio
    of sums would be the ratio of the two or three heaviest ops."""
    return median([median(a[op]) / median(b[op]) for op in a if op in b])


def percentile(values: Sequence[float], p: int) -> Optional[float]:
    """The ``p``-th percentile (nearest rank), or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it — with 14 samples a "p99" is
    the maximum, and the harness refuses to print one."""
    n = len(values)
    beyond = n * (100 - p) // 100
    if beyond < MIN_BEYOND:
        return None
    return sorted(values)[n - beyond - 1]


def summary(values: Sequence[float]) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}
