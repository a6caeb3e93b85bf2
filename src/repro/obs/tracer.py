"""Sim-clock-aware tracing: nestable spans and structured events.

The tracer records *what the simulated system did and when*, against the
virtual clock (``Simulator.now``), so a multi-cloud sync round can be
inspected as a timeline — which cloud stalled a batch, how long the
quorum lock spun, where the fault injector opened an outage window.

Library code never holds a :class:`Tracer`: it reports through the
process-global hub (:data:`repro.obs.hub.OBS`), which states the
overhead contract.  What the tracer itself guarantees:

* **No side effects on the simulation.**  Recording never draws
  randomness, never schedules simulator events, and never mutates
  domain state, so simulation outputs are byte-identical with tracing
  enabled, disabled, or absent.
* **Picklable records.**  Span/event records cross process boundaries
  (the parallel campaign runner merges per-worker buffers), so they are
  plain slotted objects with JSON-safe fields.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "SpanRecord",
    "EventRecord",
    "Tracer",
    "ctx_attrs",
]


def ctx_attrs(ctx, sid: int) -> Dict[str, Any]:
    """Correlation attrs for a span: its own ``sid`` plus its ancestry.

    ``ctx`` is a ``(trace_id, parent sid)`` pair — or None, in which
    case the span roots a fresh trace (``trace_id`` = its own id).  The
    exporter stitches ``parent``/``sid`` chains into Perfetto flow
    arrows; see ``repro.obs.export.chrome_trace``.
    """
    if ctx is None:
        return {"sid": sid, "trace_id": sid}
    return {"sid": sid, "trace_id": ctx[0], "parent": ctx[1]}


def _zero_clock() -> float:
    """Fallback clock for tracers not bound to a simulator."""
    return 0.0


class SpanRecord:
    """A named interval ``[t0, t1]`` on a track, with attributes.

    ``t1 is None`` while the span is open.  Records are appended to the
    tracer buffer at *begin* time, so the buffer order reflects start
    order (deterministic under the event kernel: ties broken by
    instrumentation call order).
    """

    __slots__ = ("name", "track", "t0", "t1", "attrs")
    kind = "span"

    def __init__(self, name: str, track: str, t0: float, attrs: Dict[str, Any]):
        self.name = name
        self.track = track
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs = attrs

    def finish(self, t: float, **attrs: Any) -> None:
        """Close the span at ``t``; later calls only merge attributes."""
        if self.t1 is None:
            self.t1 = t
        if attrs:
            self.attrs.update(attrs)

    @property
    def duration(self) -> Optional[float]:
        return None if self.t1 is None else self.t1 - self.t0

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "track": self.track,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, track={self.track!r}, "
            f"t0={self.t0!r}, t1={self.t1!r}, attrs={self.attrs!r})"
        )


class EventRecord:
    """A point-in-time structured event on a track."""

    __slots__ = ("name", "track", "t", "attrs")
    kind = "event"

    def __init__(self, name: str, track: str, t: float, attrs: Dict[str, Any]):
        self.name = name
        self.track = track
        self.t = t
        self.attrs = attrs

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "event",
            "name": self.name,
            "track": self.track,
            "t": self.t,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventRecord({self.name!r}, track={self.track!r}, "
            f"t={self.t!r}, attrs={self.attrs!r})"
        )


Record = Union[SpanRecord, EventRecord]


class Tracer:
    """An enabled trace buffer bound to a clock (usually ``sim.now``)."""

    __slots__ = ("clock", "records", "_seq")

    def __init__(self, clock: Callable[[], float] = _zero_clock):
        self.clock = clock
        self.records: List[Record] = []
        self._seq = 0

    def next_id(self) -> int:
        """Allocate a span/trace id, unique within this tracer.

        Correlated call sites stamp ids into span *attrs* (``sid`` for
        the span's own id, ``trace_id``/``parent`` for its ancestry), so
        records stay plain and uncorrelated spans pay nothing.  Ids are
        a deterministic counter — identical runs allocate identical ids.
        """
        self._seq += 1
        return self._seq

    # -- spans -----------------------------------------------------------

    def begin(
        self,
        name: str,
        t: Optional[float] = None,
        track: str = "client",
        **attrs: Any,
    ) -> SpanRecord:
        """Open a span.  Pass ``t=sim.now`` explicitly on hot paths that
        already hold the clock value; otherwise the tracer's clock is
        consulted."""
        span = SpanRecord(name, track, self.clock() if t is None else t, attrs)
        self.records.append(span)
        return span

    def end(self, span, t: Optional[float] = None, **attrs: Any) -> None:
        span.finish(self.clock() if t is None else t, **attrs)

    # -- events ----------------------------------------------------------

    def event(
        self,
        name: str,
        t: Optional[float] = None,
        track: str = "client",
        **attrs: Any,
    ) -> EventRecord:
        record = EventRecord(name, track, self.clock() if t is None else t, attrs)
        self.records.append(record)
        return record

    # -- buffer management ----------------------------------------------

    def drain(self) -> List[Record]:
        """Detach and return the buffered records."""
        records, self.records = self.records, []
        return records
