"""Transient request failures with the paper's statistical structure.

Section 3.2 of the paper reports two findings this module reproduces:

1. **Negative cross-cloud correlation** (Table 1): different CCSs rarely
   fail at the same time.  We model a global *stress token* — a
   continuous-time Markov process in which at most one cloud is
   "stressed" at any moment.  While a cloud holds the token its requests
   fail at an elevated rate; everyone else is healthy.  Because stress
   periods are mutually exclusive by construction, per-interval failure
   indicators across clouds are negatively correlated.

2. **Size-dependent failures** (Figure 4): requests below ~2 MB show no
   size effect; larger payloads fail increasingly often (longer
   transfers expose more fault windows).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["StressProcess", "FailureModel"]

_MB = 1024 * 1024


class StressProcess:
    """At most one cloud is stressed at a time (mutual exclusion).

    The process alternates between *calm* intervals (no cloud stressed)
    and *stress* intervals during which one cloud, chosen according to
    ``weights``, is degraded.  Interval lengths are exponential.  The
    timeline is generated lazily and cached, so lookups are O(log n) and
    deterministic in the seed.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        cloud_ids: Sequence[str],
        mean_calm: float = 5400.0,
        mean_stress: float = 900.0,
        weights: Optional[Sequence[float]] = None,
    ):
        if not cloud_ids:
            raise ValueError("need at least one cloud id")
        if mean_calm <= 0 or mean_stress <= 0:
            raise ValueError("interval means must be positive")
        self.cloud_ids = list(cloud_ids)
        self.mean_calm = mean_calm
        self.mean_stress = mean_stress
        if weights is None:
            probabilities = np.full(len(self.cloud_ids), 1.0 / len(self.cloud_ids))
        else:
            weights = np.asarray(weights, dtype=float)
            if len(weights) != len(self.cloud_ids) or weights.sum() <= 0:
                raise ValueError("weights must match cloud_ids and be positive")
            probabilities = weights / weights.sum()
        self._probabilities = probabilities
        self._rng = rng
        # Timeline of intervals: _starts[i] begins state _states[i].
        self._starts: List[float] = [0.0]
        self._states: List[Optional[str]] = [None]
        self._horizon = 0.0
        self._extend(3600.0)

    def _extend(self, until: float) -> None:
        while self._horizon <= until:
            current = self._states[-1]
            if current is None:
                duration = self._rng.exponential(self.mean_calm)
                nxt = self.cloud_ids[
                    int(self._rng.choice(len(self.cloud_ids), p=self._probabilities))
                ]
            else:
                duration = self._rng.exponential(self.mean_stress)
                nxt = None
            self._horizon += duration
            self._starts.append(self._horizon)
            self._states.append(nxt)

    def stressed_cloud_at(self, t: float) -> Optional[str]:
        """Which cloud (if any) is stressed at time ``t``."""
        if t < 0:
            raise ValueError(f"negative time {t}")
        self._extend(t)
        index = bisect.bisect_right(self._starts, t) - 1
        return self._states[index]


class FailureModel:
    """Per-request failure decisions for one (client, cloud) link."""

    STRESS_FACTOR = 30.0
    SIZE_KNEE_BYTES = 2 * _MB
    SIZE_SLOPE_PER_MB = 0.35  # relative increase per MB past the knee
    MAX_PROBABILITY = 0.95

    def __init__(
        self,
        rng: np.random.Generator,
        cloud_id: str,
        base_rate: float,
        stress: Optional[StressProcess] = None,
    ):
        if not 0 <= base_rate < 1:
            raise ValueError(f"base_rate must be in [0, 1), got {base_rate}")
        self.cloud_id = cloud_id
        self.base_rate = base_rate
        self.stress = stress
        self._rng = rng

    def failure_probability(self, t: float, nbytes: int) -> float:
        """Probability that a request of ``nbytes`` at time ``t`` fails."""
        probability = self.base_rate
        if self.stress is not None and (
            self.stress.stressed_cloud_at(t) == self.cloud_id
        ):
            probability *= self.STRESS_FACTOR
        if nbytes > self.SIZE_KNEE_BYTES:
            extra_mb = (nbytes - self.SIZE_KNEE_BYTES) / _MB
            probability *= 1.0 + self.SIZE_SLOPE_PER_MB * extra_mb
        return min(probability, self.MAX_PROBABILITY)

    def should_fail(self, t: float, nbytes: int) -> bool:
        """Sample a failure decision for one request."""
        return bool(self._rng.random() < self.failure_probability(t, nbytes))


def interval_failure_indicators(
    stress: StressProcess,
    cloud_ids: Sequence[str],
    interval: float,
    count: int,
) -> Dict[str, np.ndarray]:
    """Binary 'was stressed during interval i' series for each cloud.

    Helper used by tests and the Table 1 benchmark to show the designed
    negative correlation without running full transfers.
    """
    out = {cid: np.zeros(count, dtype=int) for cid in cloud_ids}
    for i in range(count):
        midpoint = (i + 0.5) * interval
        stressed = stress.stressed_cloud_at(midpoint)
        if stressed in out:
            out[stressed][i] = 1
    return out


__all__.append("interval_failure_indicators")
