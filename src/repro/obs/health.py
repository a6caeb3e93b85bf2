"""Per-cloud health scoreboard: a scored state machine with hysteresis.

UniDrive's placement loop adapts to *measured* cloud performance; this
module is the continuous form of that evidence.  Transfer outcomes,
retry verdicts, estimator drift, and injected fault windows fold into a
single score per cloud in ``[0, 1]``, and the score drives a three-state
machine::

    healthy  <-- score > healthy_above --  degraded  <-- recovery --  unavailable
    healthy  -- score < degraded_below -->  degraded  -- score < unavailable_below -->  unavailable

with two anti-flap mechanisms:

* **threshold hysteresis** — the recovery threshold (``healthy_above``)
  sits well above the degradation threshold (``degraded_below``), so a
  score oscillating around either boundary cannot bounce the state; and
* **minimum dwell** — after any transition the state holds for at least
  ``min_dwell`` sim seconds before score-driven transitions are
  honoured again (authoritative fault evidence — an outage window
  opening — overrides the dwell, because the injector *knows*).

Outage/permanent-loss windows pin the cloud to ``unavailable`` for
their duration; when the window closes the pin lifts but the state
remains ``unavailable`` until the score itself recovers — a cloud is
not trusted again the instant its provider says so.

The scoreboard is pure bookkeeping: it never draws randomness, never
touches the simulator, is only fed when a telemetry pipeline is
installed, and nothing in the library reads it, so simulation results
are byte-identical with or without it.  Each transition is mirrored as
a ``health_transition`` trace event on the cloud's track (when tracing
is enabled), which is how the Chrome exporter's score counter-track
reconstructs the timeline post-hoc.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .hub import OBS

__all__ = ["HealthScoreboard", "CloudHealth", "HEALTHY", "DEGRADED",
           "UNAVAILABLE"]

HEALTHY = "healthy"
DEGRADED = "degraded"
UNAVAILABLE = "unavailable"

#: Fault kinds that pin a cloud to ``unavailable`` while open.
#: Slow-cloud windows (``slow-begin``/``slow-end``) are deliberately
#: absent: a slowed link still answers correctly, so it must stay
#: score-driven — the degradation control plane handles it with
#: hedged reads, not by declaring the cloud unavailable.
_PINNING_BEGINS = ("outage-begin", "loss-begin")
_PINNING_ENDS = ("outage-end",)


class CloudHealth:
    """One cloud's folded evidence and state-machine position."""

    __slots__ = (
        "cloud", "score", "state", "since", "pinned", "transitions",
        "samples", "failures", "est_err", "last_seen",
    )

    def __init__(self, cloud: str, t: float = 0.0):
        self.cloud = cloud
        self.score = 1.0
        self.state = HEALTHY
        self.since = t           # time of the last transition
        self.pinned = False      # inside an authoritative outage window
        self.transitions: List[Dict[str, Any]] = []
        self.samples = 0
        self.failures = 0
        self.est_err = 0.0       # EWMA of estimator relative error
        self.last_seen = t

    def to_json(self) -> Dict[str, Any]:
        return {
            "cloud": self.cloud,
            "state": self.state,
            "score": round(self.score, 6),
            "since": self.since,
            "pinned": self.pinned,
            "samples": self.samples,
            "failures": self.failures,
            "estimator_rel_error": round(self.est_err, 6),
            "transitions": list(self.transitions),
        }


class HealthScoreboard:
    """Folds telemetry evidence into per-cloud health states."""

    def __init__(
        self,
        alpha: float = 0.25,
        degraded_below: float = 0.6,
        unavailable_below: float = 0.2,
        healthy_above: float = 0.85,
        min_dwell: float = 5.0,
        est_err_weight: float = 0.05,
        est_err_cap: float = 0.15,
    ):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not (unavailable_below < degraded_below < healthy_above):
            raise ValueError(
                "thresholds must satisfy unavailable_below < degraded_below"
                f" < healthy_above, got {unavailable_below} / "
                f"{degraded_below} / {healthy_above}"
            )
        self.alpha = alpha
        self.degraded_below = degraded_below
        self.unavailable_below = unavailable_below
        self.healthy_above = healthy_above
        self.min_dwell = min_dwell
        self.est_err_weight = est_err_weight
        self.est_err_cap = est_err_cap
        self._clouds: Dict[str, CloudHealth] = {}

    # -- evidence ---------------------------------------------------------

    def _entry(self, cloud: str, t: float) -> CloudHealth:
        entry = self._clouds.get(cloud)
        if entry is None:
            entry = CloudHealth(cloud, t)
            self._clouds[cloud] = entry
        entry.last_seen = t
        return entry

    def transfer(self, cloud: str, t: float, ok: bool,
                 retry_action: Optional[str] = None) -> None:
        """Fold one block transfer outcome.

        Failures weigh by their retry verdict: a fail-fast error (the
        cloud is *down*) is full negative evidence, a retryable blip is
        half — matching how the scheduler treats them.
        """
        entry = self._entry(cloud, t)
        entry.samples += 1
        if ok:
            outcome = 1.0
        else:
            entry.failures += 1
            outcome = 0.5 if retry_action == "retry" else 0.0
        entry.score += self.alpha * (outcome - entry.score)
        self._step(entry, t)

    def retry_outcome(self, cloud: str, t: float, outcome: str) -> None:
        """Fold a retry-loop verdict (exhausted budgets are bad news)."""
        entry = self._entry(cloud, t)
        if outcome in ("exhausted", "fail-fast"):
            entry.failures += 1
            entry.score += self.alpha * (0.0 - entry.score)
            self._step(entry, t)

    def estimator_error(self, cloud: str, t: float, rel_error: float) -> None:
        """Fold estimator drift; persistent drift shaves the score."""
        entry = self._entry(cloud, t)
        entry.est_err += self.alpha * (rel_error - entry.est_err)
        self._step(entry, t)

    def fault(self, cloud: str, t: float, kind: str) -> None:
        """Fold an injected fault event (authoritative evidence)."""
        entry = self._entry(cloud, t)
        if kind in _PINNING_BEGINS:
            entry.pinned = True
            entry.score = 0.0
            self._transition(entry, t, UNAVAILABLE, forced=True)
        elif kind in _PINNING_ENDS:
            entry.pinned = False
            # The provider says it is back; the *score* decides when we
            # believe it, so the state stays unavailable until evidence
            # accumulates.
        self._step(entry, t)

    # -- the state machine ------------------------------------------------

    def _effective_score(self, entry: CloudHealth) -> float:
        """Success score shaved by a bounded estimator-drift penalty."""
        penalty = min(self.est_err_cap, self.est_err_weight * entry.est_err)
        return max(0.0, entry.score - penalty)

    def _step(self, entry: CloudHealth, t: float) -> None:
        if entry.pinned:
            return  # pinned unavailable until the window closes
        if t - entry.since < self.min_dwell and entry.transitions:
            return  # dwell: recent transition, hold the state
        score = self._effective_score(entry)
        state = entry.state
        if state == HEALTHY:
            if score < self.unavailable_below:
                self._transition(entry, t, UNAVAILABLE)
            elif score < self.degraded_below:
                self._transition(entry, t, DEGRADED)
        elif state == DEGRADED:
            if score < self.unavailable_below:
                self._transition(entry, t, UNAVAILABLE)
            elif score > self.healthy_above:
                self._transition(entry, t, HEALTHY)
        else:  # UNAVAILABLE
            if score > self.healthy_above:
                self._transition(entry, t, HEALTHY)
            elif score > self.degraded_below:
                self._transition(entry, t, DEGRADED)

    def _transition(self, entry: CloudHealth, t: float, to: str,
                    forced: bool = False) -> None:
        if entry.state == to:
            return
        record = {
            "t": t,
            "from": entry.state,
            "to": to,
            "score": round(self._effective_score(entry), 6),
            "forced": forced,
        }
        entry.transitions.append(record)
        entry.state = to
        entry.since = t
        if OBS.enabled:
            OBS.event(
                "health_transition", t=t, track=entry.cloud,
                **{k: v for k, v in record.items() if k != "t"},
            )

    # -- queries ----------------------------------------------------------

    def state(self, cloud: str) -> str:
        entry = self._clouds.get(cloud)
        return HEALTHY if entry is None else entry.state

    def score(self, cloud: str) -> float:
        entry = self._clouds.get(cloud)
        return 1.0 if entry is None else self._effective_score(entry)

    def transitions(self, cloud: str) -> List[Dict[str, Any]]:
        entry = self._clouds.get(cloud)
        return [] if entry is None else list(entry.transitions)

    def snapshot(self) -> Dict[str, Any]:
        return {
            cloud: self._clouds[cloud].to_json()
            for cloud in sorted(self._clouds)
        }
