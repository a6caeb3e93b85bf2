"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simkernel import (
    AllOf,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return sim.now

    assert sim.run_process(proc()) == 5.0
    assert sim.now == 5.0


def test_zero_delay_timeout_runs_at_current_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(0.0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value="hello")
        return got

    assert sim.run_process(proc()) == "hello"


def test_sequential_timeouts_accumulate():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        yield sim.timeout(3.0)
        return sim.now

    assert sim.run_process(proc()) == 6.0


def test_processes_interleave_deterministically():
    sim = Simulator()
    trace = []

    def worker(name, period, n):
        for _ in range(n):
            yield sim.timeout(period)
            trace.append((sim.now, name))

    sim.process(worker("a", 2.0, 3))
    sim.process(worker("b", 3.0, 2))
    sim.run()
    # At t=6 both fire; b's timeout entered the heap first (at t=3).
    assert trace == [
        (2.0, "a"),
        (3.0, "b"),
        (4.0, "a"),
        (6.0, "b"),
        (6.0, "a"),
    ]


def test_tie_break_is_creation_order():
    sim = Simulator()
    trace = []

    def w(name):
        yield sim.timeout(1.0)
        trace.append(name)

    sim.process(w("first"))
    sim.process(w("second"))
    sim.run()
    assert trace == ["first", "second"]


def test_process_waits_on_other_process():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return 42

    def parent():
        value = yield sim.process(child())
        return (sim.now, value)

    assert sim.run_process(parent()) == (4.0, 42)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    evt = sim.event()

    def waiter():
        value = yield evt
        return value

    def firer():
        yield sim.timeout(2.0)
        evt.succeed("done")

    proc = sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert proc.value == "done"


def test_event_double_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_failed_event_raises_inside_process():
    sim = Simulator()
    evt = sim.event()

    def proc():
        try:
            yield evt
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.process(proc())
    evt.fail(ValueError("boom"))
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_process_failure_propagates_to_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_run_process_reraises_failure():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise KeyError("oops")

    with pytest.raises(KeyError):
        sim.run_process(proc())


def test_waiting_parent_defuses_child_failure():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        try:
            yield sim.process(child())
        except ValueError:
            return "handled"

    assert sim.run_process(parent()) == "handled"


def test_yield_already_processed_event_continues():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("early")
    sim.run()  # process the event with no listeners

    def proc():
        value = yield evt
        return value

    assert sim.run_process(proc()) == "early"


def test_yield_non_event_is_error():
    sim = Simulator()

    def proc():
        yield 42

    with pytest.raises(SimulationError, match="non-event"):
        sim.run_process(proc())


def test_interrupt_waiting_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
            return "slept"
        except Interrupt as exc:
            return ("interrupted", exc.cause, sim.now)

    def interrupter(target):
        yield sim.timeout(3.0)
        target.interrupt("wake up")

    p = sim.process(sleeper())
    sim.process(interrupter(p))
    sim.run()
    assert p.value == ("interrupted", "wake up", 3.0)


def test_interrupted_process_can_keep_running():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(5.0)
        return sim.now

    def interrupter(target):
        yield sim.timeout(2.0)
        target.interrupt()

    p = sim.process(sleeper())
    sim.process(interrupter(p))
    sim.run()
    assert p.value == 7.0


def test_interrupt_terminated_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    def late(target):
        yield sim.timeout(5.0)
        with pytest.raises(SimulationError):
            target.interrupt()

    p = sim.process(quick())
    sim.process(late(p))
    sim.run()


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        procs = [sim.process(child(d, v)) for d, v in [(3, "a"), (1, "b")]]
        values = yield AllOf(sim, procs)
        return (sim.now, values)

    assert sim.run_process(parent()) == (3.0, ["a", "b"])


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent():
        values = yield AllOf(sim, [])
        return values

    assert sim.run_process(parent()) == []


def test_all_of_fails_fast_on_child_failure():
    sim = Simulator()

    def ok():
        yield sim.timeout(10.0)

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("bad child")

    def parent():
        try:
            yield AllOf(sim, [sim.process(ok()), sim.process(bad())])
        except ValueError:
            return sim.now

    assert sim.run_process(parent()) == 1.0


def test_run_until_stops_clock():
    sim = Simulator()
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(ticker())
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_cancelled_call_neither_runs_nor_moves_the_clock():
    sim = Simulator()
    calls = []

    def late():
        calls.append(("late", sim.now))

    def early():
        calls.append(("early", sim.now))

    due = sim.call_later(50.0, late)
    sim.call_later(1.0, early)
    sim.call_later(2.0, lambda: calls.append(("other", sim.now)))
    sim.cancel(due, late)
    sim.cancel(due, late)  # already withdrawn: nothing to do
    sim.run()
    assert calls == [("early", 1.0), ("other", 2.0)]
    assert sim.now == 2.0
    assert sim.steps == 2


def test_starved_run_process_raises():
    sim = Simulator()

    def proc():
        yield sim.event()  # never fires

    with pytest.raises(SimulationError, match="starved"):
        sim.run_process(proc())


def test_start_runs_first_step_before_returning():
    """start() runs the generator up to its first yield inline; process()
    defers that step to a scheduled event."""
    sim = Simulator()
    log = []

    def body(name):
        log.append((name, sim.now))
        yield sim.timeout(1.0)
        log.append((name, sim.now))
        return name

    deferred = sim.process(body("deferred"))
    assert log == []
    started = sim.start(body("inline"))
    assert log == [("inline", 0.0)]
    assert started.is_alive
    sim.run()
    assert started.value == "inline" and deferred.value == "deferred"
    assert log == [("inline", 0.0), ("deferred", 0.0),
                   ("inline", 1.0), ("deferred", 1.0)]


def test_start_keeps_insertion_order_of_scheduled_events():
    """Events the inline first step schedules sit between the events
    scheduled before and after the start() call at the same instant."""
    sim = Simulator()
    order = []

    def body():
        sim.call_later(0.0, lambda: order.append("inside"))
        yield sim.timeout(0.0)
        order.append("resumed")

    def driver():
        sim.call_later(0.0, lambda: order.append("before"))
        sim.start(body())
        sim.call_later(0.0, lambda: order.append("after"))
        yield sim.timeout(0.0)

    sim.run_process(driver())
    sim.run()
    assert order == ["before", "inside", "resumed", "after"]


def test_start_reports_failure_through_the_process_event():
    sim = Simulator()

    def broken():
        raise ValueError("boom")
        yield  # pragma: no cover - makes this a generator

    proc = sim.start(broken())
    assert proc.triggered and not proc.ok
    proc.defused = True
    sim.run()
    assert isinstance(proc.value, ValueError)


def test_late_callback_on_processed_event_delivered():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("v")
    seen = []
    sim.run()
    evt.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


# -- hard kill (crash modelling) --------------------------------------------


def test_kill_stops_process_without_running_yielding_cleanup():
    """kill() is power loss: the generator is closed at the current
    time, and ``finally`` cleanup that needs more simulated I/O (a
    yield) dies with it."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(10.0)
            log.append("finished")
        finally:
            log.append("cleanup-start")
            yield sim.timeout(1.0)  # needs sim time: must NOT run
            log.append("cleanup-done")

    proc = sim.process(victim())

    killed_at = []

    def killer():
        yield sim.timeout(3.0)
        proc.kill()
        killed_at.append((sim.now, proc.triggered))

    sim.process(killer())
    sim.run()
    assert killed_at == [(3.0, True)]  # dead immediately, at kill time
    assert proc.ok and proc.value is None
    assert log == ["cleanup-start"]


def test_kill_resolves_waiters_with_none():
    """A process waiting on the victim sees a normal (None) completion —
    crash modelling must not poison AllOf joins."""
    sim = Simulator()
    results = []

    def victim():
        yield sim.timeout(100.0)
        return "never"

    proc = sim.process(victim())

    def waiter():
        value = yield proc
        results.append(value)

    sim.process(waiter())

    def killer():
        yield sim.timeout(1.0)
        proc.kill()

    sim.process(killer())
    sim.run()
    assert results == [None]


def test_kill_is_idempotent_and_safe_on_finished_process():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(quick())
    sim.run()
    assert proc.value == 42
    proc.kill()  # no-op on a triggered process
    assert proc.value == 42
