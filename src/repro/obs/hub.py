"""The one instrumentation seam: a process-global hub with three sinks.

Library code reports a *fact* — a block landed, a retry loop gave up, a
sync round ended — with one guard and one call::

    if OBS.enabled:
        OBS.transfer_failed(span, cloud_id, sim.now, UPLOAD, ...)

and the hub fans it out to whichever sinks are installed: the
:class:`~repro.obs.tracer.Tracer` (span/event records), the
:class:`~repro.obs.metrics.Metrics` registry (counters/histograms) and
the :class:`~repro.obs.telemetry.Telemetry` pipeline (windows, health,
SLOs).  Any of them may be absent; callers never know which exist.
Facts that reach one sink use the pass-throughs (``begin`` / ``end`` /
``event`` / ``inc`` / ``observe``), facts that reach several are the
named methods.  DESIGN.md ("Observability model") has the catalogue and
the overhead contract: ``enabled`` (True iff any sink is installed) is
the only thing a disabled site reads; reporting never draws randomness,
schedules simulator events or mutates domain state; and within a fact
the sinks are fed tracer, metrics, telemetry — so results are
byte-identical with observability on, off or absent, and the artifacts
are a pure function of the instrumented program.  The hub is write-only:
no library code reads a sink back, so no decision can depend on which
sinks are installed.  Tools read a sink's own snapshot after the run.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from .tracer import ctx_attrs

__all__ = ["ObsHub", "OBS"]

#: ``begin(ctx=...)`` default: the span joins no causal tree and takes
#: no id (``ctx=None`` roots a fresh tree instead).
_UNLINKED = object()


class ObsHub:
    """Process-global dispatch point for instrumentation."""

    __slots__ = ("enabled", "tracer", "metrics", "telemetry")

    def __init__(self):
        self.install()

    def install(self, tracer=None, metrics=None, telemetry=None) -> None:
        """Replace all three sinks at once (``None`` = not installed)."""
        self.tracer, self.metrics, self.telemetry = tracer, metrics, telemetry
        self.enabled = not (tracer is None and metrics is None
                            and telemetry is None)

    # -- pass-throughs -----------------------------------------------------

    def begin(self, name: str, t: Optional[float] = None,
              track: str = "client", ctx: Any = _UNLINKED, **attrs: Any):
        """Open a span; returns ``(span, ctx)`` — ``(None, None)``
        without a tracer.

        With ``ctx`` (a ``(trace_id, parent sid)`` pair, or None to root
        a fresh trace) the span is stamped with its own ``sid`` plus its
        ancestry, after ``attrs``, and the returned ``ctx`` is what its
        children pass here.  An attr the caller already names keeps its
        slot: the Chrome exporter writes span args in insertion order,
        and ``sync_round`` has always led with ``trace_id``.
        """
        tracer = self.tracer
        if tracer is None:
            return None, None
        if ctx is _UNLINKED:
            return tracer.begin(name, t, track, **attrs), None
        sid = tracer.next_id()
        attrs.update(ctx_attrs(ctx, sid))
        return tracer.begin(name, t, track, **attrs), (attrs["trace_id"], sid)

    def end(self, span, t: Optional[float] = None, **attrs: Any) -> None:
        """Close a span from :meth:`begin` (no-op for ``None``)."""
        if span is not None:
            if t is None:
                t = 0.0 if self.tracer is None else self.tracer.clock()
            span.finish(t, **attrs)

    def event(self, name: str, t: Optional[float] = None,
              track: str = "client", **attrs: Any) -> None:
        if self.tracer is not None:
            self.tracer.event(name, t, track, **attrs)

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value, **labels)

    # -- facts: data plane -------------------------------------------------

    def transfer_done(self, span, cloud: str, t: float, direction: str,
                      nbytes: int, tenant: Optional[str], redundant: bool,
                      estimate: Optional[float],
                      true_rate: Optional[float]) -> None:
        """One block landed.  ``estimate`` / ``true_rate``: the EWMA
        per-connection estimate against the *raw* simulated link rate
        at completion (None without a bandwidth model) — a drift
        diagnostic, not an exact residual, since the true per-connection
        share also depends on concurrent transfers."""
        self.end(span, t, bytes=nbytes)
        self.inc(f"bytes_{direction}", nbytes, cloud=cloud)
        if redundant:
            self.inc("redundant_blocks", cloud=cloud)
            self.inc("redundant_bytes", nbytes, cloud=cloud)
        drift = estimate is not None and math.isfinite(estimate)
        if drift and true_rate > 0:
            self.observe("estimator_rel_error",
                         abs(estimate - true_rate) / true_rate,
                         direction=direction)
        if self.telemetry is not None:
            self.telemetry.transfer(cloud, t, True, nbytes, direction,
                                    tenant, redundant)
            if drift:
                self.telemetry.estimator(cloud, t, direction, estimate,
                                         true_rate)

    def transfer_failed(self, span, cloud: str, t: float, direction: str,
                        error: str, action: str, tenant: Optional[str],
                        missing: bool = False, **seen: Any) -> None:
        """One block request failed and goes back to the dispatcher
        (``seen``: what did arrive, e.g. ``bytes`` of a rejected
        payload).  ``missing`` is a deterministic per-(index, cloud)
        miss: the cloud answered correctly that it lacks the block, so
        it is counted but is no health or SLO signal."""
        self.end(span, t, **seen, error=error, retry_action=action)
        self.inc("scheduler_redispatch", cloud=cloud, direction=direction)
        if self.telemetry is None:
            return
        if missing:
            self.telemetry.missing_block(cloud, t)
        else:
            self.telemetry.transfer(cloud, t, False, 0, direction, tenant,
                                    retry_action=action)

    def transfer_corrupt(self, span, cloud: str, t: float, direction: str,
                         nbytes: int, tenant: Optional[str]) -> None:
        """A fetched block failed its integrity fingerprint."""
        self.inc("corrupt_detected", cloud=cloud)
        self.transfer_failed(span, cloud, t, direction, "CorruptBlock",
                             "give-up", tenant, bytes=nbytes)

    def corrupt_detected(self, cloud: str, t: float, segment_id: str,
                         index: int) -> None:
        """A verified read outside the scheduler (scrub, repair fetch)
        found rot; ``t`` is when the block finished downloading."""
        self.inc("corrupt_detected", cloud=cloud)
        self.event("corrupt_block", t=t, track=cloud,
                   seg=segment_id[:12], block=index)

    def encoded(self, span, wall_ms: float) -> None:
        """An encode-cache miss was filled."""
        self.end(span, wall_ms=wall_ms)
        self.inc("encode_cache", result="miss")

    # -- facts: control plane ----------------------------------------------

    def retry_outcome(self, t: float, outcome: str,
                      exc: BaseException) -> None:
        """A :class:`~repro.core.retry.RetryPolicy` verdict on ``exc``."""
        self.inc("retry_outcome", outcome=outcome, error=type(exc).__name__)
        if self.telemetry is not None:
            self.telemetry.retry(t, outcome, getattr(exc, "cloud_id", None))

    def round_done(self, span, report, t: float, error: Optional[str],
                   metadata_bytes: int, block_bytes: int) -> None:
        """A sync round ended (``error``: the exception's name, if any)
        having moved that many metadata / block bytes."""
        if error is not None:
            self.end(span, t, error=error)
        elif span is not None:
            span.finish(
                t,
                uploaded=len(report.uploaded_files),
                downloaded=len(report.downloaded_files),
                deleted=len(report.deleted_files),
                conflicts=len(report.conflicts),
                version=report.committed_version,
            )
        if self.telemetry is not None:
            self.telemetry.sync_round(report.device, report.started_at, t,
                                      ok=error is None)
        if metadata_bytes > 0:
            self.inc("metadata_bytes", metadata_bytes, device=report.device)
        if block_bytes > 0:
            self.inc("block_bytes", block_bytes, device=report.device)

    def lock_settled(self, span, device: str, t: float, backoffs: int,
                     locked: Optional[int]) -> None:
        """Quorum-lock acquisition ended after ``backoffs`` contention
        cycles: with ``locked`` clouds held, or (None) timed out."""
        if locked is None:
            self.end(span, t, rounds=backoffs + 1, error="LockTimeout")
            self.inc("lock_timeouts", device=device)
        else:
            self.end(span, t, rounds=backoffs + 1, locked=locked)
            self.inc("lock_acquired", device=device)
        if backoffs:
            self.inc("lock_contention_cycles", backoffs, device=device)

    def lock_break(self, cloud: str, t: float, victim: str,
                   breaker: str) -> None:
        """A crashed device's stale lock file was broken."""
        self.event("lock_break", t=t, track=cloud, victim=victim,
                   breaker=breaker)
        self.inc("lock_breaks", cloud=cloud)

    def metadata_skip(self, cloud: str, t: float, reason: str) -> None:
        """A reachable cloud served metadata that must not be adopted."""
        self.event("metadata_skip", t=t, track=cloud, reason=reason)
        self.inc("metadata_skips", cloud=cloud, reason=reason)

    def journal_sweep(self, device: str, t: float, orphans: int) -> None:
        """Crash leftovers with no round to fold into were deleted."""
        self.inc("orphans_swept", orphans, device=device)
        self.event("journal_sweep", t=t, track=device, orphans=orphans)

    def debt_recorded(self, device: str, t: float, segment_id: str,
                      owed: int) -> None:
        """A brownout commit left ``owed`` fair-share blocks unplaced."""
        self.inc("debt_recorded", owed, device=device)
        if self.telemetry is not None:
            self.telemetry.debt(t, segment_id, owed)
        self.event("brownout_commit", t=t, track=device,
                   seg=segment_id[:12], owed=owed)

    def debt_remaining(self, span, t: float, segment_id: str,
                       remaining: int) -> None:
        """A repayment pass over one segment ended (0 = fully repaid)."""
        if self.telemetry is not None:
            self.telemetry.debt(t, segment_id, remaining)
        self.end(span, t, remaining=remaining)

    def scrub_round_done(self, span, device: str, t: float,
                         **summary: Any) -> None:
        """An audit(+repair) pass ended; ``summary`` is its tally."""
        self.end(span, t, **summary)
        self.inc("scrub_rounds", device=device)

    def fault(self, target: str, t: float, kind: str) -> None:
        """An injected fault fired: it lands on the affected cloud's
        track next to the transfers it perturbs (the Chrome exporter
        stitches ``-begin``/``-end`` pairs back into window spans)."""
        self.event("fault", t=t, track=target, kind=kind)
        if self.telemetry is not None:
            self.telemetry.fault(target, t, kind)


#: The process-global hub.  Disabled (no sinks) by default; install
#: sinks with :func:`repro.obs.configure` or :func:`repro.obs.isolated`.
OBS = ObsHub()
