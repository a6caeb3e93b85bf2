"""In-channel bandwidth probing (paper §6.2).

UniDrive never probes explicitly: every completed block transfer *is*
the probe.  The estimator keeps an exponentially-weighted moving average
of **per-connection** throughput per (cloud, direction) — per-connection
rather than aggregate because scheduling hands one block to one
connection, and clouds differ in how many concurrent connections they
sustain.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import OBS

__all__ = ["ThroughputEstimator", "UPLOAD", "DOWNLOAD"]

UPLOAD = "up"
DOWNLOAD = "down"


class ThroughputEstimator:
    """EWMA per-connection throughput tracker."""

    def __init__(self, alpha: float = 0.3):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._estimates: Dict[Tuple[str, str], float] = {}
        self._samples: Dict[Tuple[str, str], int] = {}
        self._updated: Dict[Tuple[str, str], float] = {}
        self.generation = 0  #: bumped by every estimate change

    def record(self, cloud_id: str, direction: str, nbytes: float,
               duration: float, now: Optional[float] = None) -> None:
        """Feed one completed transfer as a probe.

        ``now`` (sim time) stamps the update for :meth:`snapshot` and the
        ``estimator_update`` trace event; callers without a clock may
        omit it.
        """
        if duration <= 0:
            return
        throughput = nbytes / duration
        key = (cloud_id, direction)
        current = self._estimates.get(key)
        if current is None:
            self._estimates[key] = throughput
        else:
            self._estimates[key] = (
                self.alpha * throughput + (1 - self.alpha) * current
            )
        self._samples[key] = self._samples.get(key, 0) + 1
        self.generation += 1
        if now is not None:
            self._updated[key] = now
        if OBS.enabled:
            self._trace_update(key, now, "sample")

    def record_failure(self, cloud_id: str, direction: str,
                       now: Optional[float] = None) -> None:
        """Penalize a cloud whose request failed (wasted the channel).

        A cloud that has never completed a transfer gets a *seeded*
        finite estimate on its first failure: left at ``+inf`` it would
        keep winning :meth:`rank` forever, so an unreachable-but-
        unprobed cloud would be explored first on every batch.  The seed
        is one EWMA step below the slowest probed peer (or a floor of
        1 B/s with no peers), so the failing cloud ranks behind every
        probed cloud and behind still-unprobed ones, while a single
        completed transfer pulls the estimate back up through the EWMA.
        """
        key = (cloud_id, direction)
        current = self._estimates.get(key)
        if current is None:
            peers = [
                value
                for (_cid, peer_direction), value in self._estimates.items()
                if peer_direction == direction and math.isfinite(value)
            ]
            seed = min(peers) * (1 - self.alpha) if peers else 1.0
            self._estimates[key] = seed
        else:
            self._estimates[key] = current * (1 - self.alpha)
        self.generation += 1
        if now is not None:
            self._updated[key] = now
        if OBS.enabled:
            self._trace_update(key, now, "failure")

    def _trace_update(self, key: Tuple[str, str], now: Optional[float],
                      kind: str) -> None:
        OBS.event(
            "estimator_update", t=now, track=key[0], direction=key[1],
            kind=kind, estimate=self._estimates[key],
            samples=self._samples.get(key, 0),
        )

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Observable state: per ``cloud:direction`` channel, the current
        estimate (bytes/s), sample count, and last-update sim time
        (``None`` when the channel was never stamped with a clock).

        The PR 3 ``record_failure`` seeding bug was invisible precisely
        because this state had no read path besides :meth:`estimate`.
        """
        return {
            f"{cloud_id}:{direction}": {
                "estimate": value,
                "samples": self._samples.get((cloud_id, direction), 0),
                "updated_at": self._updated.get((cloud_id, direction)),
            }
            for (cloud_id, direction), value in sorted(self._estimates.items())
        }

    def estimate(self, cloud_id: str, direction: str) -> float:
        """Estimated per-connection bytes/second.

        Unprobed clouds report ``+inf`` so the scheduler explores them
        first — the cheapest possible probe is the next real block.
        """
        return self._estimates.get((cloud_id, direction), math.inf)

    def sample_count(self, cloud_id: str, direction: str) -> int:
        return self._samples.get((cloud_id, direction), 0)

    def rank(self, cloud_ids: Sequence[str], direction: str) -> List[str]:
        """Clouds ordered fastest-first (unprobed clouds lead)."""
        return sorted(
            cloud_ids,
            key=lambda cid: -self.estimate(cid, direction),
        )
