"""The fault injector: scripted, reproducible failure scenarios.

Every injection is expressed against the existing seams of the
simulation substrate — :meth:`SimulatedCloud.set_available` for
outages, the per-connection :class:`~repro.netsim.FailureModel` for
flakiness and stress — so production code paths run unmodified under
test.  Windows are scheduled as ordinary simulator processes, which
makes a whole chaos scenario deterministic in the simulator seed(s):
the injector itself draws no randomness.

Typical use::

    injector = FaultInjector(sim)
    injector.outage(clouds[0], start=100.0, end=700.0)
    injector.flaky(conns[2], rate=0.4, start=0.0, end=300.0)
    injector.force_drops(conns[1], count=2)
    sim.run_process(client.sync())
    assert injector.events  # timeline of what fired, for assertions
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cloud import NotFoundError
from ..obs import OBS

__all__ = ["FaultInjector", "PinnedStress", "ForcedFailures", "FaultEvent"]


@dataclass(frozen=True)
class FaultEvent:
    """One injection firing, for post-hoc assertions and debugging."""

    time: float
    kind: str       # "outage-begin", "outage-end", "flaky-begin", ...
    target: str     # cloud id the event applies to


class PinnedStress:
    """A stress process frozen onto one cloud (or onto none).

    Drop-in for :class:`~repro.netsim.StressProcess`: the failure model
    only ever calls ``stressed_cloud_at``.  Pinning removes the Markov
    timeline's randomness so a test can hold a chosen cloud at the
    elevated failure rate for as long as the pin is installed.
    """

    def __init__(self, cloud_id: Optional[str]):
        self.cloud_id = cloud_id

    def stressed_cloud_at(self, t: float) -> Optional[str]:
        return self.cloud_id


class ForcedFailures:
    """Failure-model wrapper that forces the next N payload drops.

    ``failure_probability`` returns 1.0 (certain mid-transfer drop) for
    the next ``remaining`` payload-carrying requests, then delegates to
    the wrapped model.  Preamble checks (``nbytes == 0``) and empty
    payloads always delegate — the point is to exercise the
    *mid-transfer* failure path, where bytes were already moved and
    charged before the request died.
    """

    def __init__(self, inner, count: int):
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._inner = inner
        self.remaining = count

    def failure_probability(self, t: float, nbytes: int) -> float:
        if nbytes > 0 and self.remaining > 0:
            self.remaining -= 1
            return 1.0
        return self._inner.failure_probability(t, nbytes)

    def should_fail(self, t: float, nbytes: int) -> bool:
        return self._inner.should_fail(t, nbytes)

    def __getattr__(self, name):
        # base_rate, stress, cloud_id, ... — behave like the inner model.
        return getattr(self._inner, name)


class FaultInjector:
    """Schedules deterministic fault windows over a simulation."""

    def __init__(self, sim):
        self.sim = sim
        self.events: List[FaultEvent] = []

    # -- event log ---------------------------------------------------------

    def _log(self, kind: str, target: str) -> None:
        self.events.append(FaultEvent(self.sim.now, kind, target))
        if OBS.enabled:
            OBS.fault(target, self.sim.now, kind)

    def windows(self, kind: str, target: Optional[str] = None):
        """Closed [begin, end] windows reconstructed from the log.

        ``kind`` is the window stem (``"outage"``, ``"flaky"``,
        ``"stress"``); open-ended windows report ``end=None``.
        """
        begins: List[FaultEvent] = []
        out = []
        for event in self.events:
            if target is not None and event.target != target:
                continue
            if event.kind == f"{kind}-begin":
                begins.append(event)
            elif event.kind == f"{kind}-end" and begins:
                out.append((begins.pop(0).time, event.time))
        out.extend((event.time, None) for event in begins)
        return sorted(out)

    # -- injections --------------------------------------------------------

    def outage(self, cloud, start: float = 0.0,
               end: Optional[float] = None) -> None:
        """Full-service outage on ``cloud`` during [start, end).

        ``end=None`` leaves the cloud down for the rest of the run.
        Times are absolute virtual times; a ``start`` at or before
        ``sim.now`` takes effect on the next simulator step.
        """

        def script():
            if start > self.sim.now:
                yield self.sim.timeout(start - self.sim.now)
            cloud.set_available(False)
            self._log("outage-begin", cloud.cloud_id)
            if end is not None:
                yield self.sim.timeout(max(0.0, end - self.sim.now))
                cloud.set_available(True)
                self._log("outage-end", cloud.cloud_id)

        self.sim.process(script())

    def flaky(self, connection, rate: float, start: float = 0.0,
              end: Optional[float] = None) -> None:
        """Override one connection's base failure rate during a window.

        The previous rate is restored when the window closes, so
        scenarios can layer a flaky phase over an otherwise-clean link.
        """
        if not 0 <= rate < 1:
            raise ValueError(f"rate must be in [0, 1), got {rate}")

        def script():
            if start > self.sim.now:
                yield self.sim.timeout(start - self.sim.now)
            model = connection.conditions.failures
            previous = model.base_rate
            model.base_rate = rate
            self._log("flaky-begin", connection.cloud_id)
            if end is not None:
                yield self.sim.timeout(max(0.0, end - self.sim.now))
                model.base_rate = previous
                self._log("flaky-end", connection.cloud_id)

        self.sim.process(script())

    def slow_cloud(self, connections, factor: float, start: float = 0.0,
                   end: Optional[float] = None) -> None:
        """Degrade a cloud's links without errors during [start, end).

        Latency is multiplied by ``factor`` and both link directions'
        mean bandwidth divided by it — the cloud keeps answering
        correctly, only slowly, which is the brownout regime circuit
        breakers must *not* trip on (no failure evidence) but hedged
        reads should route around.  ``connections`` is one connection
        or a sequence of them (every device's link to the slowed
        cloud); originals are restored when the window closes.
        """
        if factor <= 1.0:
            raise ValueError(f"factor must exceed 1.0, got {factor}")
        if not isinstance(connections, (list, tuple)):
            connections = [connections]
        connections = list(connections)
        if not connections:
            raise ValueError("slow_cloud needs at least one connection")

        def script():
            if start > self.sim.now:
                yield self.sim.timeout(start - self.sim.now)
            saved = []
            for conn in connections:
                cond = conn.conditions
                saved.append((cond, cond.latency.base_seconds))
                cond.latency.base_seconds *= factor
                cond.uplink.scale(1.0 / factor)
                cond.downlink.scale(1.0 / factor)
            self._log("slow-begin", connections[0].cloud_id)
            if end is not None:
                yield self.sim.timeout(max(0.0, end - self.sim.now))
                for cond, base_seconds in saved:
                    cond.latency.base_seconds = base_seconds
                    cond.uplink.scale(factor)
                    cond.downlink.scale(factor)
                self._log("slow-end", connections[0].cloud_id)

        self.sim.process(script())

    def pin_stress(self, connections: Sequence, cloud_id: Optional[str],
                   start: float = 0.0, end: Optional[float] = None) -> None:
        """Pin the stress token to ``cloud_id`` on the given connections.

        Replaces each connection's stress process with a
        :class:`PinnedStress` for the window, restoring the originals at
        ``end``.  ``cloud_id=None`` pins *calm* (no cloud stressed).
        """
        connections = list(connections)

        def script():
            if start > self.sim.now:
                yield self.sim.timeout(start - self.sim.now)
            saved = [
                (conn, conn.conditions.failures.stress)
                for conn in connections
            ]
            pin = PinnedStress(cloud_id)
            for conn in connections:
                conn.conditions.failures.stress = pin
            self._log("stress-begin", cloud_id or "<calm>")
            if end is not None:
                yield self.sim.timeout(max(0.0, end - self.sim.now))
                for conn, previous in saved:
                    conn.conditions.failures.stress = previous
                self._log("stress-end", cloud_id or "<calm>")

        self.sim.process(script())

    def silent_corruption(self, cloud, path: str,
                          at: float = 0.0) -> None:
        """Rot the bytes of one stored object at time ``at``.

        Size and mtime are preserved (see ``ObjectStore.corrupt``), so
        only content verification — the download-path hash check or a
        deep scrub — can detect it.  A path that does not exist when
        the script fires is logged as ``corruption-miss`` and skipped
        (the object may have been garbage-collected meanwhile).
        """

        def script():
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            try:
                cloud.store.corrupt(path)
            except NotFoundError:
                self._log("corruption-miss", cloud.cloud_id)
            else:
                self._log("corruption", cloud.cloud_id)

        self.sim.process(script())

    def permanent_loss(self, cloud, at: float = 0.0,
                       wipe: bool = True) -> None:
        """Kill a provider for good: offline forever, data destroyed.

        Unlike :meth:`outage` there is no end — and with ``wipe`` (the
        default) the stored objects are gone, so even a later
        resurrection of the service could not serve them.  Recovery
        must come from the surviving clouds (scrub + decommission).
        """

        def script():
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            cloud.set_available(False)
            if wipe:
                cloud.store.wipe()
            self._log("loss-begin", cloud.cloud_id)

        self.sim.process(script())

    def client_crash(self, client, process, at: float = 0.0) -> None:
        """Kill a client device mid-round at time ``at`` (power loss).

        ``process`` is the Process running the client's sync round; it
        is hard-stopped (:meth:`Process.kill` — no ``finally`` cleanup
        beyond the first yield), then ``client.crash()`` stops the
        transfer workers and the lock refresher the round had spawned.
        Blocks already acknowledged stay on the clouds; the client's
        journal is the only record the device keeps.
        """

        def script():
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            if process is not None and process.is_alive:
                process.kill()
            client.crash()
            self._log("crash", client.device)

        self.sim.process(script())

    def force_drops(self, connection, count: int = 1) -> ForcedFailures:
        """Force the next ``count`` payload transfers on a connection to
        drop mid-transfer.  Takes effect immediately (no window — the
        forcing is consumed by the requests themselves); returns the
        wrapper so tests can assert ``remaining == 0``.
        """
        model = connection.conditions.failures
        if isinstance(model, ForcedFailures):
            model.remaining += count
            self._log("drops-armed", connection.cloud_id)
            return model
        wrapper = ForcedFailures(model, count)
        connection.conditions.failures = wrapper
        self._log("drops-armed", connection.cloud_id)
        return wrapper
