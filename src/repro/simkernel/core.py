"""Discrete-event simulation kernel.

A small, deterministic, generator-based process kernel in the spirit of
SimPy.  Every stochastic or time-consuming activity in the UniDrive
reproduction (cloud API calls, block transfers, device sync loops) is
expressed as a generator that yields :class:`Event` objects and is driven
by a :class:`Simulator`.

The kernel is deliberately minimal: events, timeouts, processes,
interrupts and the :class:`AllOf` combinator.
Everything runs in *virtual* time, so a month-long measurement campaign
completes in seconds of wall-clock time and is reproducible event for
event.

The hot loop is allocation-lean: every kernel class declares
``__slots__``, an event defers allocating its callback list until a
*second* waiter subscribes (the overwhelmingly common case is exactly
one waiter — the process that yielded the event), and
:meth:`Simulator.call_later` schedules a bare callable at a future time
without building an :class:`Event` at all (the transfer engine's timer
path).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional


__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
]

_PENDING = object()


class SimulationError(Exception):
    """Raised when the kernel detects an internal protocol violation."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupt ``cause`` is available both as ``exc.cause`` and as
    ``exc.args[0]``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    triggers it and schedules its callbacks to run at the current virtual
    time.  Processes wait on events by ``yield``-ing them.

    Callbacks are stored in a compact tri-state slot: ``None`` (no
    waiters yet), a single callable (one waiter — no list allocated), or
    a list (two or more waiters).
    """

    __slots__ = ("sim", "_cbs", "_processed", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cbs: Any = None
        self._processed = False
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self.defused = False

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value, or the failure exception instance."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with ``exception`` as its outcome."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        Adding a callback to an already-processed event schedules an
        immediate re-delivery so late subscribers still observe it.
        """
        if self._processed:
            # Already processed: deliver asynchronously at the current time.
            self.sim.call_later(0.0, lambda: callback(self))
            return
        cbs = self._cbs
        if cbs is None:
            self._cbs = callback
        elif type(cbs) is list:
            cbs.append(callback)
        else:
            self._cbs = [cbs, callback]

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._processed:
            return
        cbs = self._cbs
        if type(cbs) is list:
            if callback in cbs:
                cbs.remove(callback)
        elif cbs is not None and cbs == callback:
            self._cbs = None


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        self.delay = delay
        sim._schedule(self, delay=delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout is triggered on creation")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout is triggered on creation")


class Process(Event):
    """A running generator, itself usable as an event (fires on return).

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, the generator is resumed with the event's value; when it
    fails, the exception is thrown into the generator (and the event is
    defused, since the process took responsibility for it).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, inline=False):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        init = Event(sim)
        init._ok = True
        init._value = None
        if inline:
            self._resume(init)
        else:
            init._cbs = self._resume
            sim._schedule(init)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def kill(self) -> None:
        """Hard-stop the process at the current time (power loss).

        Unlike :meth:`interrupt`, nothing is thrown *into* the process
        for it to handle: the generator is closed on the spot, and any
        ``finally`` cleanup runs only up to its first ``yield`` —
        cleanup that needs further simulated I/O is abandoned
        mid-flight, exactly as when the OS process dies.  The Process
        event succeeds (value ``None``) so combinators waiting on it
        resolve instead of hanging forever.  Killing an already
        terminated process is a no-op.
        """
        if self.triggered:
            return
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
        for _attempt in range(8):
            try:
                self._generator.close()
                break
            except RuntimeError:
                # The generator yielded during GeneratorExit: cleanup
                # wanted simulated I/O, which dies with the process.
                # Re-close from the new suspension point; the frame
                # unwinds within a bounded number of rounds.
                continue
            except Exception:
                break
        self.succeed(None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if self._target is self:
            raise SimulationError("a process cannot interrupt itself")
        poke = Event(self.sim)
        poke._ok = False
        poke._value = Interrupt(cause)
        poke.defused = True
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
        poke._cbs = self._resume
        self.sim._schedule(poke)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            # Stale wake-up: an event this process once waited on fired
            # after the process was interrupted away from it and has
            # since terminated.  Consume silently.
            if not event._ok:
                event.defused = True
            return
        self._target = None
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    event.defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Exception as exc:
                self.fail(exc)
                return
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {target!r}"
                )
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except Exception as err:
                    self.fail(err)
                return
            if target._processed:
                # Yielded an already-processed event: continue immediately.
                event = target
                continue
            self._target = target
            target.add_callback(self._resume)
            return


class AllOf(Event):
    """Fires when *all* events have fired; value is the list of values.

    Fails fast if any constituent event fails.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: List[Event] = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("events belong to different simulators")
        self._pending = len(self.events)
        if self._pending == 0:
            self.succeed([])
        else:
            for ev in self.events:
                ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self.events])


class Simulator:
    """The event loop: a priority queue over virtual time.

    Ties at the same timestamp are broken by insertion order, making runs
    fully deterministic.
    """

    __slots__ = ("_now", "_queue", "_counter", "_steps")

    def __init__(self):
        self._now = 0.0
        self._queue: List = []
        self._counter = itertools.count()
        self._steps = 0

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Number of queue entries processed so far (events + calls)."""
        return self._steps

    # -- event factories ------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start ``generator`` as a process; returns its Process event."""
        return Process(self, generator)

    def start(self, generator: Generator) -> Process:
        """:meth:`process`, but the first step runs before this returns,
        not one step later.  Use it inside a step whose later actions must
        follow that first step's effects (e.g. shared RNG draws)."""
        return Process(self, generator, inline=True)

    # -- scheduling -----------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, next(self._counter), event, None)
        )

    def call_later(self, delay: float, func: Callable[[], None]) -> float:
        """Run bare ``func()`` at ``now + delay``; returns that time.

        The allocation-lean timer path: no :class:`Event`, no callback
        registration — just a heap entry.  Ordering relative to events
        scheduled for the same instant follows insertion order, exactly
        like event scheduling.
        """
        when = self._now + delay
        heapq.heappush(self._queue, (when, next(self._counter), None, func))
        return when

    def cancel(self, when: float, func: Callable[[], None]) -> None:
        """Withdraw the pending :meth:`call_later` of ``func`` due at
        ``when`` (its return value): it neither runs nor moves the
        clock.  A linear scan of the queue — for rare withdrawals."""
        queue = self._queue
        for position, entry in enumerate(queue):
            if entry[3] is func and entry[0] == when:
                last = queue.pop()
                if position < len(queue):
                    queue[position] = last
                    heapq.heapify(queue)
                return

    # -- execution ------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or virtual time exceeds ``until``.

        One step is inlined here with hoisted locals — this loop
        executes once per simulated event, and a per-step method call
        plus repeated attribute lookups are measurable at campaign scale.
        """
        queue = self._queue
        pop = heapq.heappop
        steps = self._steps
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    self._now = until
                    return
                when, _, event, func = pop(queue)
                self._now = when
                steps += 1
                if func is not None:
                    func()
                    continue
                cbs = event._cbs
                event._cbs = None
                event._processed = True
                if cbs is not None:
                    if type(cbs) is list:
                        for callback in cbs:
                            callback(event)
                    else:
                        cbs(event)
                if not event._ok and not event.defused:
                    raise event._value
        finally:
            self._steps = steps
        if until is not None:
            self._now = max(self._now, until)

    def run_process(self, generator_or_process) -> Any:
        """Run a generator (or Process) to completion; return its value.

        Re-raises the process's exception on failure.  This is the main
        entry point used by tests and experiment harnesses.
        """
        proc = generator_or_process
        if not isinstance(proc, Process):
            proc = self.process(proc)
        # Same inlined hot loop as run(): one iteration per simulated
        # event, with the per-step method call and attribute lookups
        # hoisted out.
        queue = self._queue
        pop = heapq.heappop
        steps = self._steps
        try:
            while queue and not proc.triggered:
                when, _, event, func = pop(queue)
                self._now = when
                steps += 1
                if func is not None:
                    func()
                    continue
                cbs = event._cbs
                event._cbs = None
                event._processed = True
                if cbs is not None:
                    if type(cbs) is list:
                        for callback in cbs:
                            callback(event)
                    else:
                        cbs(event)
                if not event._ok and not event.defused:
                    raise event._value
        finally:
            self._steps = steps
        if not proc.triggered:
            raise SimulationError(
                "process starved: no scheduled events remain"
            )
        # Drain same-timestamp bookkeeping so callbacks fire, then report.
        if not proc.ok:
            proc.defused = True
            raise proc.value
        return proc.value
