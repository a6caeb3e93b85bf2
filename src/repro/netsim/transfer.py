"""Fluid-flow simulation of concurrent block transfers on one link.

One :class:`TransferEngine` models a single direction (upload *or*
download) of one client's path to one cloud.  Each active transfer
progresses at the link's current per-connection rate; when more
transfers are active than the link's useful parallelism
(``max_parallel``, the paper uses up to 5 connections per cloud), the
aggregate capacity ``rate * max_parallel`` is shared equally.

The engine advances transfer progress lazily between *decision points*:
a transfer starting or finishing, or a bandwidth epoch boundary.  At
each decision point it recomputes the earliest next completion and arms
a single timer, giving O(active) work per event and exact completion
times for piecewise-constant rates.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..obs import OBS
from ..simkernel import Event, Simulator

__all__ = ["TransferEngine", "Transfer", "SharedNic"]

_EPSILON_BYTES = 1e-6


class Transfer:
    """One in-flight transfer: bookkeeping plus its completion event."""

    __slots__ = (
        "nbytes", "remaining", "event", "started_at", "finished_at", "span",
    )

    def __init__(self, sim: Simulator, nbytes: float):
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.event = Event(sim)
        self.started_at = sim.now
        self.finished_at: Optional[float] = None
        # Trace span for this flow; None unless the owning engine is
        # labelled with a trace track and tracing is enabled.
        self.span = None

    @property
    def duration(self) -> float:
        """Wall (virtual) time the transfer took; finished transfers only."""
        if self.finished_at is None:
            raise RuntimeError("transfer not finished")
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Average bytes/second achieved, for in-channel probing."""
        duration = self.duration
        return self.nbytes / duration if duration > 0 else math.inf


class SharedNic:
    """A client-side aggregate bandwidth cap shared by several engines.

    Models the host NIC (or an ISP plan): the paper's rented EC2 VMs
    capped downloads at 40 Mbps *across all clouds combined*, which is
    what limited UniDrive's download-side gains (§7.2).  When the summed
    demand of all attached engines exceeds ``capacity``, every engine's
    per-connection rate is scaled down proportionally (fluid max-min
    with equal weights).
    """

    def __init__(self, capacity: float):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.engines: List["TransferEngine"] = []

    def attach(self, engine: "TransferEngine") -> None:
        self.engines.append(engine)
        engine.nic = self

    def demand(self) -> float:
        """Aggregate unconstrained demand of all attached engines."""
        total = 0.0
        for engine in self.engines:
            n = engine.active_count
            if n == 0:
                continue
            rate = engine.bandwidth.rate_at(engine.sim.now)
            total += rate * min(n, engine.max_parallel)
        return total

    def scale(self) -> float:
        """Current throttling factor in (0, 1]."""
        demand = self.demand()
        if demand <= self.capacity:
            return 1.0
        return self.capacity / demand

    def poke(self, source: "TransferEngine") -> None:
        """An engine's membership changed: re-plan the siblings."""
        for engine in self.engines:
            if engine is not source and engine._active:
                engine._advance()
                engine._reschedule(notify_nic=False)


class TransferEngine:
    """Shares one link's capacity among concurrent transfers."""

    def __init__(self, sim: Simulator, bandwidth, max_parallel: int = 5,
                 nic: "SharedNic" = None, trace_track: Optional[str] = None,
                 trace_name: str = "flow"):
        if max_parallel < 1:
            raise ValueError(f"max_parallel must be >= 1, got {max_parallel}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.max_parallel = max_parallel
        self.nic = None
        #: When set (e.g. to a cloud id), each transfer on this engine
        #: records a ``trace_name`` span on that track while tracing is
        #: enabled.  Unlabelled engines never touch the tracer.
        self.trace_track = trace_track
        self.trace_name = trace_name
        self._active: List[Transfer] = []
        self._last_update = sim.now
        # Reusable timer: one bound callable for the engine's lifetime,
        # scheduled directly via ``sim.call_later`` (no Timeout event,
        # no per-decision lambda).  ``_timer_deadline`` is the virtual
        # time the *live* timer is armed for; superseded heap entries
        # fire at a different time and no-op.  NaN means "no live
        # timer" (it compares unequal to every time).
        self._fire = self._on_timer
        self._timer_deadline = math.nan
        #: Per-connection rate in effect for the current interval;
        #: cached so progress accounting matches exactly what was
        #: planned, even when a shared NIC rescales rates mid-flight.
        self._rate_in_effect = 0.0
        self.bytes_completed = 0.0
        self.transfers_completed = 0
        if nic is not None:
            nic.attach(self)

    # -- public API ------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    def per_connection_rate(self) -> float:
        """Current rate each active transfer receives, bytes/second."""
        rate = self.bandwidth.rate_at(self.sim.now)
        n = len(self._active)
        if n > self.max_parallel:
            rate = rate * self.max_parallel / n
        if self.nic is not None:
            rate *= self.nic.scale()
        return rate

    def start(self, nbytes: float, ctx=None) -> Transfer:
        """Begin transferring ``nbytes``; ``transfer.event`` fires at completion.

        Zero-byte transfers complete immediately (a control request's
        payload time is dominated by latency, handled elsewhere).
        ``ctx`` is an optional ``(trace_id, parent sid)`` correlation
        pair stamped onto the flow span; it never affects timing.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        transfer = Transfer(self.sim, nbytes)
        if nbytes == 0:
            transfer.finished_at = self.sim.now
            transfer.event.succeed(transfer)
            return transfer
        if OBS.enabled and self.trace_track is not None:
            transfer.span, _ = OBS.begin(
                self.trace_name, t=self.sim.now, track=self.trace_track,
                ctx=ctx, bytes=transfer.nbytes,
            )
        self._advance()
        self._active.append(transfer)
        self._reschedule()
        if self.nic is not None:
            self.nic.poke(self)
        return transfer

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer; its event fires with CancelledError."""
        if transfer in self._active:
            self._advance()
            self._active.remove(transfer)
            if transfer.span is not None:
                transfer.span.finish(self.sim.now, cancelled=True)
                transfer.span = None
            transfer.event.fail(TransferCancelled())
            transfer.event.defused = True
            self._reschedule()
            if self.nic is not None:
                self.nic.poke(self)

    # -- internals --------------------------------------------------------

    def _advance(self) -> None:
        """Account progress from the last update to now.

        Progress accrues at the cached rate planned by the previous
        ``_reschedule`` — every event that can change the rate (epoch
        boundary, arrival, completion, NIC rebalance) passes through a
        decision point first, so the interval had exactly that rate.
        """
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        progressed = self._rate_in_effect * elapsed
        for transfer in self._active:
            transfer.remaining -= progressed

    def _reschedule(self, notify_nic: bool = True,
                    progressed: float = 0.0) -> None:
        """Complete finished transfers and arm the next wake-up timer.

        This is the substrate's single hottest function (one call per
        decision point), so it trades a little readability for locals
        and a fused scan: one pass over the active list applies the
        elapsed progress (``progressed`` bytes, from the timer path),
        classifies finished transfers *and* finds the shortest
        survivor.
        """
        self._timer_deadline = math.nan  # invalidate any armed timer
        active = self._active
        if not active:
            self._rate_in_effect = 0.0
            return
        sim = self.sim
        now = sim.now
        bandwidth = self.bandwidth
        # Per-connection rate, inlined from per_connection_rate().
        rate_now = bandwidth.rate_at(now)
        n = len(active)
        if n > self.max_parallel:
            rate_now = rate_now * self.max_parallel / n
        nic = self.nic
        if nic is not None:
            rate_now *= nic.scale()
        # A transfer whose remainder would complete in less than one
        # representable time step can never make progress (now + delay
        # rounds back to now), so treat it as done.  The threshold is
        # rate-aware: residual float dust scales with the link rate.
        resolution = math.ulp(now if now > 1.0 else 1.0)
        threshold = rate_now * resolution * 8
        if threshold < _EPSILON_BYTES:
            threshold = _EPSILON_BYTES
        finished = None
        shortest = math.inf
        for transfer in active:
            remaining = transfer.remaining - progressed
            transfer.remaining = remaining
            if remaining <= threshold:
                if finished is None:
                    finished = [transfer]
                else:
                    finished.append(transfer)
            elif remaining < shortest:
                shortest = remaining
        if finished:
            for transfer in finished:
                active.remove(transfer)
                transfer.remaining = 0.0
                transfer.finished_at = now
                self.bytes_completed += transfer.nbytes
                self.transfers_completed += 1
                if transfer.span is not None:
                    transfer.span.finish(now)
                    transfer.span = None
                transfer.event.succeed(transfer)
            if notify_nic and nic is not None:
                nic.poke(self)
            if not active:
                self._rate_in_effect = 0.0
                return
            # Completions change this engine's parallelism (and, through
            # a shared NIC, the whole host's demand); otherwise the rate
            # computed for the threshold is still exact.
            rate = self.per_connection_rate()
        else:
            rate = rate_now
        self._rate_in_effect = rate
        completion_delay = shortest / rate if rate > 0 else math.inf
        epoch_delay = bandwidth.next_change_after(now) - now
        delay = (
            completion_delay if completion_delay < epoch_delay
            else epoch_delay
        )
        if not math.isfinite(delay):  # pragma: no cover - defensive
            raise RuntimeError("transfer can never complete (zero rate)")
        # Guarantee the timer lands strictly after `now` in float time.
        min_delay = resolution * 2
        if delay < min_delay:
            delay = min_delay
        self._timer_deadline = sim.call_later(delay, self._fire)

    def _on_timer(self) -> None:
        # Exactly one deadline is live at a time; a heap entry from a
        # superseded decision point fires at some other instant (every
        # re-arm lands strictly later than its decision point) and is
        # dropped here.  NaN compares unequal to every ``now``.
        now = self.sim.now
        if now != self._timer_deadline:
            return  # superseded by a newer decision point
        # _advance() folded in: progress is applied inside the
        # _reschedule scan (same subtract-then-compare order).
        elapsed = now - self._last_update
        self._last_update = now
        progressed = (
            self._rate_in_effect * elapsed if elapsed > 0.0 else 0.0
        )
        self._reschedule(progressed=progressed)


class TransferCancelled(Exception):
    """Outcome of a transfer aborted via :meth:`TransferEngine.cancel`."""


__all__.append("TransferCancelled")
