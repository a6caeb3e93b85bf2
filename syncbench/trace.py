"""An outside tracer: spans around calls into each layer, host clock.

Nothing here knows the program under test.  A :class:`Tracer` keeps
spans in memory; :func:`span_function`, :func:`span_generator` and
:func:`count_calls` build wrappers that a :class:`Patches` object
installs on — and later removes from — the binding the caller actually
uses (``syncbench.layers`` lists those bindings).

Simulation processes are generators that the kernel resumes many times,
interleaved with other processes.  A generator span therefore
accumulates host time *per resume* (one ``send()``/``throw()`` into the
wrapped generator is one slice) instead of from first call to
``StopIteration``; only so does the time of process B, resumed between
two resumes of process A, stay out of A's span.

Self time is a span's busy time minus the busy time of the slices that
ran nested inside its own slices — the usual stack rule, applied to
slices.  A span's ``parent`` is the span that was running when the call
was *made* (the span that caused it), which for a process spawned with
``sim.process(...)`` differs from the kernel loop that later resumes it.
"""

from __future__ import annotations

import functools
import heapq
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "Patches",
    "span_function",
    "span_generator",
    "count_calls",
]


class Span:
    """One call into a layer (for a generator: all of its resumes)."""

    __slots__ = ("sid", "name", "layer", "parent", "op", "start", "end",
                 "busy_s", "self_s", "resumes")

    def __init__(self, sid: int, name: str, layer: str,
                 parent: Optional[int], op):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start: Optional[float] = None  # host clock, first resume
        self.end: Optional[float] = None  # host clock, last resume's end
        self.busy_s = 0.0
        self.self_s = 0.0
        self.resumes = 0


class Tracer:
    """In-memory span store with stack-based self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 min_slice_s: float = 100e-6):
        self.clock = clock
        #: Slices shorter than this are accounted but not kept for the
        #: Chrome trace (a fan-out run resumes generators ~10^6 times).
        self.min_slice_s = min_slice_s
        self.spans: List[Span] = []
        self.slices: List[Tuple[int, float, float]] = []  # (sid, t0, t1)
        self.counts: Dict[str, float] = defaultdict(int)
        #: Identifier of the benchmark op in flight; stamped on every
        #: span opened meanwhile (closed loop: one op at a time).
        self.op = None
        self._stack: List[list] = []  # [span, t0, nested busy seconds]

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1][0].sid if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self.op)
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> None:
        self._stack.append([span, self.clock(), 0.0])

    def exit(self) -> None:
        now = self.clock()
        span, t0, nested = self._stack.pop()
        busy = now - t0
        span.busy_s += busy
        span.self_s += busy - nested
        span.resumes += 1
        if span.start is None:
            span.start = t0
        span.end = now
        if self._stack:
            self._stack[-1][2] += busy
        if busy >= self.min_slice_s:
            self.slices.append((span.sid, t0, now))

    # -- reading -----------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Σ self time by span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return dict(totals)

    def table(self) -> List[dict]:
        """One row per (layer, span name), largest self time first."""
        rows: Dict[Tuple[str, str], dict] = {}
        for span in self.spans:
            row = rows.get((span.layer, span.name))
            if row is None:
                row = rows[(span.layer, span.name)] = {
                    "layer": span.layer, "span": span.name, "calls": 0,
                    "resumes": 0, "busy_s": 0.0, "self_s": 0.0,
                }
            row["calls"] += 1
            row["resumes"] += span.resumes
            row["busy_s"] += span.busy_s
            row["self_s"] += span.self_s
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def chrome_trace(self, origin: float, max_events: int = 2500) -> dict:
        """The ``max_events`` longest slices as Chrome-trace ``X`` events.

        Slices come off one thread's stack, so they nest properly on a
        single track however many are dropped.  ``ts``/``dur`` are host
        microseconds since ``origin``.
        """
        kept = heapq.nlargest(
            max_events, self.slices, key=lambda s: s[2] - s[1]
        )
        kept.sort(key=lambda s: (s[1], -s[2]))
        events = []
        for sid, t0, t1 in kept:
            span = self.spans[sid]
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "pid": 1, "tid": 1,
                "ts": round((t0 - origin) * 1e6, 1),
                "dur": round((t1 - t0) * 1e6, 1),
                "args": {"span": sid, "parent": span.parent,
                         "op": span.op},
            })
        return {"displayTimeUnit": "ms", "traceEvents": events}


# -- wrappers ----------------------------------------------------------------


def span_function(tracer: Tracer, fn: Callable, name: str, layer: str,
                  after: Optional[Callable] = None) -> Callable:
    """Wrap a plain function in a span.

    ``after(counts, result, *args, **kwargs)`` runs outside the span on
    normal return — the place to count work at the layer boundary.
    """
    enter, leave, open_span = tracer.enter, tracer.exit, tracer.open
    counts = tracer.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(open_span(name, layer))
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            after(counts, result, *args, **kwargs)
        return result

    return traced


def _drive(tracer: Tracer, span: Span, gen, after, args, kwargs):
    """Delegate to ``gen``, charging each resume to ``span``."""
    enter, leave = tracer.enter, tracer.exit
    value, error = None, None
    while True:
        enter(span)
        try:
            if error is None:
                item = gen.send(value)
            else:
                item = gen.throw(error)
        except StopIteration as stop:
            result = stop.value
            break
        finally:
            leave()
        try:
            value, error = (yield item), None
        except GeneratorExit:
            enter(span)
            try:
                gen.close()
            finally:
                leave()
            raise
        except BaseException as exc:  # thrown in by the kernel: forward
            value, error = None, exc
    if after is not None:
        after(tracer.counts, result, *args, **kwargs)
    return result


def span_generator(tracer: Tracer, fn: Callable, name: str, layer: str,
                   before: Optional[Callable] = None,
                   after: Optional[Callable] = None) -> Callable:
    """Wrap a generator function (a simulation process body) in a span.

    ``before(counts, *args, **kwargs)`` runs when the call is made;
    ``after(counts, result, *args, **kwargs)`` when the generator
    returns normally (not when it raises or is closed).
    """
    counts = tracer.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(counts, *args, **kwargs)
        return _drive(tracer, tracer.open(name, layer),
                      fn(*args, **kwargs), after, args, kwargs)

    return traced


def count_calls(tracer: Tracer, fn: Callable, key: str) -> Callable:
    """Count-only wrapper for functions too hot to time."""
    counts = tracer.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


# -- installation ----------------------------------------------------------


class Patches:
    """Install wrappers on module or class bindings; undo them exactly."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, wrap: Callable[[Callable], Callable],
                required: bool = True) -> bool:
        """``owner.attr = wrap(owner.attr)``; False if an optional seam
        is gone.  ``owner`` must *define* ``attr`` (inherited methods are
        patched where they are defined), and a staticmethod stays one.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            if required:
                raise AttributeError(
                    f"trace seam {owner.__name__}.{attr} does not exist"
                )
            return False
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        return True

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
