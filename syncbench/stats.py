"""Order statistics the benchmark reports (no interpolation anywhere)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["nearest_rank", "p95", "quartile_spread"]

#: Below this many ops a 95th percentile has no sample beyond it, so the
#: maximum is reported in its place.
P95_MIN_OPS = 20


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by nearest rank: the ⌈q·n⌉-th smallest value."""
    if not values:
        raise ValueError("no values")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def p95(values: Sequence[float]) -> float:
    """Nearest-rank 95th percentile; the maximum where ops < 20."""
    if len(values) < P95_MIN_OPS:
        return max(values)
    return nearest_rank(values, 0.95)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) ÷ median, as the driver computes its noise floor."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
