"""The streaming-telemetry sink: windows + health + SLOs.

:class:`Telemetry` bundles the three continuous subsystems —
:class:`~repro.obs.timeseries.TimeSeries` windows,
:class:`~repro.obs.health.HealthScoreboard`, and the
:class:`~repro.obs.slo.SLOEngine`.  The process-global hub
(:data:`repro.obs.hub.OBS`) calls its write methods directly when one
is installed; recording never draws randomness, schedules simulator
events, or mutates domain state, so simulation results are
byte-identical with telemetry enabled, disabled, or absent.

Nothing in the library reads the pipeline back: the health states and
SLO burn rates are for people and tools (``tools/health.py`` renders
:meth:`Telemetry.snapshot`), never an input to dispatch.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from .health import HealthScoreboard
from .slo import SLO, SLOEngine
from .timeseries import TimeSeries

__all__ = ["Telemetry"]

UPLOAD = "up"


class Telemetry:
    """One enabled telemetry pipeline (windows + scoreboard + SLOs)."""

    def __init__(
        self,
        window: float = 60.0,
        ring: int = 256,
        latency_target: float = 10.0,
        scoreboard: Optional[HealthScoreboard] = None,
        slos: Optional[Tuple[SLO, ...]] = None,
    ):
        self.timeseries = TimeSeries(width=window, ring=ring)
        self.health = scoreboard if scoreboard is not None else HealthScoreboard()
        self.slo = SLOEngine(self.timeseries, slos=slos,
                             latency_target=latency_target)
        self.last_t = 0.0

    # -- recording fan-out ------------------------------------------------

    def transfer(self, cloud: str, t: float, ok: bool, nbytes: float,
                 direction: str, tenant: Optional[str] = None,
                 redundant: bool = False,
                 retry_action: Optional[str] = None) -> None:
        """One block transfer outcome, fanned to every subsystem."""
        self.last_t = t
        self.health.transfer(cloud, t, ok, retry_action=retry_action)
        ts = self.timeseries
        ts.inc("blocks_ok" if ok else "blocks_failed", t, cloud=cloud)
        if ok and nbytes:
            ts.inc("window_bytes", t, nbytes, cloud=cloud, dir=direction)
        who = tenant if tenant is not None else "-"
        self.slo.block_transfer(who, t, ok)
        if ok and direction == UPLOAD and nbytes:
            self.slo.upload_bytes(who, t, nbytes, redundant)

    def sync_round(self, tenant: str, t0: float, t1: float,
                   ok: bool = True) -> None:
        self.last_t = t1
        duration = t1 - t0
        self.timeseries.observe("round_duration", t1, duration,
                                device=tenant)
        self.slo.sync_round(tenant, t1, duration, ok=ok)

    def missing_block(self, cloud: str, t: float) -> None:
        """A deterministic per-(index, cloud) miss — the scheduler falls
        back to another replica.  Counted, but never a health or SLO
        penalty: the cloud answered correctly that it lacks the block."""
        self.last_t = t
        self.timeseries.inc("blocks_missing", t, cloud=cloud)

    def retry(self, t: float, outcome: str,
              cloud: Optional[str] = None) -> None:
        self.last_t = t
        self.timeseries.inc("window_retries", t, outcome=outcome)
        if cloud is not None:
            self.health.retry_outcome(cloud, t, outcome)

    def estimator(self, cloud: str, t: float, direction: str,
                  estimate: float, true_rate: float) -> None:
        self.last_t = t
        ts = self.timeseries
        ts.gauge("estimator_bps", t, estimate, cloud=cloud, dir=direction)
        ts.gauge("link_bps", t, true_rate, cloud=cloud, dir=direction)
        if true_rate > 0:
            self.health.estimator_error(
                cloud, t, abs(estimate - true_rate) / true_rate
            )

    def fault(self, target: str, t: float, kind: str) -> None:
        self.last_t = t
        self.timeseries.inc("window_faults", t, kind=kind, target=target)
        self.health.fault(target, t, kind)

    def debt(self, t: float, segment: str, owed: int) -> None:
        """Redundancy-debt observation for one segment: a brownout
        commit recording missing indices, or a scrub pass reporting
        the remainder after repayment (0 = fully repaid)."""
        self.last_t = t
        self.timeseries.gauge("debt_blocks", t, owed, seg=segment[:12])
        self.slo.debt("-", t, owed)

    # -- snapshot ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe end-of-run view of all three subsystems."""
        return {
            "windows": self.timeseries.snapshot(),
            "health": self.health.snapshot(),
            "slo": self.slo.evaluate(self.last_t),
            "latency_target": self.slo.latency_target,
            "last_t": self.last_t,
        }
