"""Unit tests for the deterministic fault-injection harness."""

from dataclasses import replace

import pytest

from repro.cloud import (
    CloudUnavailableError,
    RequestFailedError,
    SimulatedCloud,
)
from repro.faults import FaultInjector, ForcedFailures, PinnedStress
from repro.netsim import LinkProfile
from repro.simkernel import Simulator
from repro.workloads import connect


#: A quiet 20/40 Mbps link; tests that need failures replace the rate.
LINK = LinkProfile(
    up_mbps=20.0, down_mbps=40.0, rtt_seconds=0.05, latency_jitter=0.0,
    failure_rate=0.0, volatility=0.0, fade_probability=0.0,
    diurnal_amplitude=0.0,
)


def test_outage_window_opens_and_closes():
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0")
    (conn,) = connect(sim, [cloud], 0, LINK)
    injector = FaultInjector(sim)
    injector.outage(cloud, start=5.0, end=40.0)

    results = []

    def driver():
        yield from conn.upload("/a", b"x")  # before the window
        results.append("before-ok")
        yield sim.timeout(10.0)
        try:
            yield from conn.upload("/b", b"x")
        except CloudUnavailableError:
            results.append("during-down")
        yield sim.timeout(30.0)
        yield from conn.upload("/c", b"x")
        results.append("after-ok")

    sim.run_process(driver())
    assert results == ["before-ok", "during-down", "after-ok"]
    assert injector.windows("outage", "c0") == [(5.0, 40.0)]


def test_open_ended_outage_never_recovers():
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0")
    (conn,) = connect(sim, [cloud], 0, LINK)
    injector = FaultInjector(sim)
    injector.outage(cloud, start=1.0)

    def driver():
        yield sim.timeout(500.0)
        yield from conn.upload("/x", b"x")

    with pytest.raises(CloudUnavailableError):
        sim.run_process(driver())
    assert injector.windows("outage", "c0") == [(1.0, None)]


def test_flaky_override_and_restore():
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0")
    (conn,) = connect(sim, [cloud], 0, replace(LINK, failure_rate=0.01))
    injector = FaultInjector(sim)
    injector.flaky(conn, rate=0.75, start=2.0, end=10.0)

    def driver():
        yield sim.timeout(5.0)
        mid = conn.conditions.failures.base_rate
        yield sim.timeout(10.0)
        return mid

    mid_rate = sim.run_process(driver())
    assert mid_rate == 0.75
    assert conn.conditions.failures.base_rate == 0.01
    assert injector.windows("flaky", "c0") == [(2.0, 10.0)]


def test_flaky_rate_validation():
    sim = Simulator()
    injector = FaultInjector(sim)
    with pytest.raises(ValueError):
        injector.flaky(object(), rate=1.0)


def test_force_drops_fails_exactly_n_payload_transfers():
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0")
    (conn,) = connect(sim, [cloud], 0, LINK)
    injector = FaultInjector(sim)
    wrapper = injector.force_drops(conn, count=2)
    assert isinstance(conn.conditions.failures, ForcedFailures)

    def driver():
        outcomes = []
        for name in ("/a", "/b", "/c"):
            try:
                yield from conn.upload(name, b"payload")
                outcomes.append("ok")
            except RequestFailedError:
                outcomes.append("dropped")
        return outcomes

    outcomes = sim.run_process(driver())
    assert outcomes == ["dropped", "dropped", "ok"]
    assert wrapper.remaining == 0
    # Partial bytes were charged before each drop (mid-transfer).
    assert conn.traffic.failed_requests == 2


def test_force_drops_accumulates_on_rearm():
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0")
    (conn,) = connect(sim, [cloud], 0, LINK)
    injector = FaultInjector(sim)
    first = injector.force_drops(conn, count=1)
    second = injector.force_drops(conn, count=1)
    assert first is second
    assert second.remaining == 2


def test_force_drops_spares_zero_byte_requests():
    """Preamble checks and empty payloads must delegate, not consume."""
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0")
    (conn,) = connect(sim, [cloud], 0, LINK)
    injector = FaultInjector(sim)
    wrapper = injector.force_drops(conn, count=1)

    def driver():
        yield from conn.delete("/nothing")  # zero-byte payload path
        return True

    assert sim.run_process(driver())
    assert wrapper.remaining == 1


def test_pin_stress_holds_elevated_failure_rate():
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0")
    (conn,) = connect(sim, [cloud], 0, replace(LINK, failure_rate=0.01))
    original_stress = conn.conditions.failures.stress
    injector = FaultInjector(sim)
    injector.pin_stress([conn], "c0", start=0.0, end=100.0)

    def driver():
        yield sim.timeout(1.0)
        pinned = conn.conditions.failures.failure_probability(sim.now, 0)
        yield sim.timeout(200.0)
        after = conn.conditions.failures.failure_probability(sim.now, 0)
        return pinned, after

    pinned, after = sim.run_process(driver())
    assert pinned == pytest.approx(0.01 * 30.0)  # STRESS_FACTOR
    assert after == pytest.approx(0.01)
    assert conn.conditions.failures.stress is original_stress


def test_pinned_stress_is_constant():
    pin = PinnedStress("cloudX")
    assert pin.stressed_cloud_at(0.0) == "cloudX"
    assert pin.stressed_cloud_at(1e9) == "cloudX"
    assert PinnedStress(None).stressed_cloud_at(5.0) is None


def test_slow_cloud_degrades_and_restores_throughput():
    """A slow window multiplies transfer time by roughly the factor and
    fully restores the link when it closes — same rng streams, so the
    post-window transfer matches a never-slowed run."""
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0")
    (conn,) = connect(sim, [cloud], 12, LINK)
    injector = FaultInjector(sim)
    injector.slow_cloud(conn, factor=20.0, start=10.0, end=50.0)

    payload = b"x" * (256 * 1024)
    durations = []

    def driver():
        for begin in (0.0, 15.0, 60.0):
            if begin > sim.now:
                yield sim.timeout(begin - sim.now)
            t0 = sim.now
            yield from conn.upload(f"/at{begin}", payload)
            durations.append(sim.now - t0)

    sim.run_process(driver())
    before, during, after = durations
    assert during > before * 5.0, "inside the window the link crawls"
    assert after == pytest.approx(before, rel=0.5), \
        "closing the window restores the healthy link"
    assert injector.windows("slow", "c0") == [(10.0, 50.0)]
    assert [e.kind for e in injector.events] == ["slow-begin", "slow-end"]


def test_slow_cloud_rejects_degenerate_factor():
    sim = Simulator()
    _cloud = SimulatedCloud(sim, "c0")
    (conn,) = connect(sim, [_cloud], 0, LINK)
    injector = FaultInjector(sim)
    with pytest.raises(ValueError):
        injector.slow_cloud(conn, factor=1.0)
    with pytest.raises(ValueError):
        injector.slow_cloud([], factor=4.0)


def test_silent_corruption_logs_a_missing_path_as_a_miss():
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0")
    (_conn,) = connect(sim, [cloud], 0, LINK)
    cloud.store.put("/blocks/b0", b"payload", mtime=0.0)
    injector = FaultInjector(sim)
    injector.silent_corruption(cloud, "/blocks/b0", at=1.0)
    injector.silent_corruption(cloud, "/blocks/collected", at=2.0)
    sim.run()
    assert cloud.store.get("/blocks/b0") != b"payload"
    assert [(e.time, e.kind) for e in injector.events] == [
        (1.0, "corruption"), (2.0, "corruption-miss"),
    ]


def test_silent_corruption_of_a_size_only_store_raises():
    # A misconfigured fault script, not a missing object: it must
    # surface, not be logged as a miss.
    sim = Simulator()
    cloud = SimulatedCloud(sim, "c0", retain_content=False)
    cloud.store.put("/blocks/b0", b"payload", mtime=0.0)
    injector = FaultInjector(sim)
    injector.silent_corruption(cloud, "/blocks/b0", at=1.0)
    with pytest.raises(RuntimeError, match="retain_content"):
        sim.run()
    assert injector.events == []
