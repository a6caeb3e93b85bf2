"""Chaos suite: full sync campaigns through outage/flaky/stress matrices.

These tests drive complete :class:`UniDriveClient` rounds — data plane,
quorum lock, metadata plane — while the :class:`FaultInjector` scripts
failures underneath, and assert the paper's degraded-mode guarantees:
convergence with any K_r of N clouds reachable, no lost operations, and
bounded sync time while clouds are down (fail-fast, not retry storms).
"""

import itertools

import numpy as np
import pytest

from repro.cloud import SimulatedCloud
from repro.core import UniDriveConfig
from repro.faults import FaultInjector
from repro.netsim import LinkProfile
from repro.simkernel import Simulator
from repro.workloads import make_device

CONFIG = UniDriveConfig(theta=64 * 1024)

chaos_smoke = pytest.mark.chaos_smoke


#: Realistic (non-instant) links: transfers take virtual time, so
#: mid-transfer faults can actually hit them.
SLOW_LINK = LinkProfile(
    up_mbps=20.0, down_mbps=40.0, rtt_seconds=0.05, latency_jitter=0.0,
    failure_rate=0.0, volatility=0.0, fade_probability=0.0,
    diurnal_amplitude=0.0,
)


def payload(seed, size=96 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def wait(sim, seconds):
    yield sim.timeout(seconds)


# -- outage matrix ----------------------------------------------------------


@pytest.mark.parametrize(
    "dead", list(itertools.combinations(range(5), 2)),
    ids=lambda pair: f"down{pair[0]}{pair[1]}",
)
def test_sync_converges_with_any_two_clouds_down(dead):
    """K_r = 3 of N = 5: every 2-cloud outage combination still gives a
    full commit + a fresh device bootstrap, in bounded degraded time."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    injector = FaultInjector(sim)
    for index in dead:
        injector.outage(clouds[index], start=0.0)
    writer = make_device(sim, clouds, "writer", seed=1, config=CONFIG)
    files = {"/a": payload(1), "/b": payload(2)}
    for path, data in files.items():
        writer.fs.write_file(path, data, mtime=sim.now)
    report = sim.run_process(writer.sync())
    assert report.committed_version == 1
    assert report.upload_report.all_available
    assert report.upload_report.report_for("/a").degraded
    # Bounded degraded-mode sync: fail-fast keeps each dead cloud to one
    # unavailability timeout per serialized phase, not a retry storm.
    assert report.duration < 300.0
    # A fresh device joining during the same outage converges too: any
    # K_r = 3 live clouds hold >= k = 3 blocks of every segment.
    reader = make_device(sim, clouds, "reader", seed=7, config=CONFIG)
    fetched = sim.run_process(reader.sync())
    assert sorted(fetched.downloaded_files) == sorted(files)
    for path, data in files.items():
        assert reader.fs.read_file(path) == data


@chaos_smoke
def test_two_down_smoke():
    """Smoke-sized slice of the outage matrix for CI."""
    test_sync_converges_with_any_two_clouds_down((0, 3))


# -- rolling outages --------------------------------------------------------


@chaos_smoke
def test_rolling_outages_converge():
    """Clouds go down one after another across sync rounds; a two-device
    fleet never loses an op and ends fully convergent."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    injector = FaultInjector(sim)
    # Cloud i is down during [400*i + 50, 400*i + 350): every round has
    # exactly one (different) cloud dark for most of its duration.
    for i in range(5):
        injector.outage(clouds[i], start=400.0 * i + 50.0,
                        end=400.0 * i + 350.0)
    alice = make_device(sim, clouds, "alice", seed=11, config=CONFIG)
    bob = make_device(sim, clouds, "bob", seed=12, config=CONFIG)
    for round_no in range(5):
        sim.run_process(wait(sim, 100.0))  # inside cloud round_no's window
        alice.fs.write_file(f"/doc{round_no}", payload(100 + round_no),
                            mtime=sim.now)
        sim.run_process(alice.sync())
        sim.run_process(bob.sync())
        sim.run_process(wait(sim, 300.0))
    assert alice.image.version.counter == bob.image.version.counter
    for round_no in range(5):
        data = payload(100 + round_no)
        assert alice.fs.read_file(f"/doc{round_no}") == data
        assert bob.fs.read_file(f"/doc{round_no}") == data
    assert len(injector.windows("outage")) == 5


# -- flaky matrix -----------------------------------------------------------


@chaos_smoke
def test_sync_through_flaky_clouds():
    """Per-cloud flaky-rate overrides: transient failures are retried
    (with backoff) and the campaign still converges losslessly."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=21, config=CONFIG)
    injector = FaultInjector(sim)
    injector.flaky(writer.connections[1], rate=0.3)
    injector.flaky(writer.connections[4], rate=0.3)
    files = {f"/f{i}": payload(200 + i) for i in range(3)}
    for path, data in files.items():
        writer.fs.write_file(path, data, mtime=sim.now)
    report = sim.run_process(writer.sync())
    assert report.committed_version == 1
    assert report.upload_report.all_available
    assert writer.traffic_totals()["failed_requests"] > 0
    reader = make_device(sim, clouds, "reader", seed=22, config=CONFIG)
    fetched = sim.run_process(reader.sync())
    assert sorted(fetched.downloaded_files) == sorted(files)
    for path, data in files.items():
        assert reader.fs.read_file(path) == data


def test_sync_with_stress_pinned_cloud():
    """Stress-token pinning: one cloud held at the elevated failure rate
    for the whole campaign behaves like a persistently flaky member."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=31, config=CONFIG)
    injector = FaultInjector(sim)
    # Base rate 0.02 * STRESS_FACTOR 30 = 0.6 while pinned.
    for conn in writer.connections:
        conn.conditions.failures.base_rate = 0.02
    injector.pin_stress(writer.connections, "c2")
    writer.fs.write_file("/doc", payload(300), mtime=sim.now)
    report = sim.run_process(writer.sync())
    assert report.committed_version == 1
    assert report.upload_report.all_available
    reader = make_device(sim, clouds, "reader", seed=32, config=CONFIG)
    sim.run_process(reader.sync())
    assert reader.fs.read_file("/doc") == payload(300)


# -- mid-sync cloud death ---------------------------------------------------


@chaos_smoke
def test_cloud_death_mid_sync_batch():
    """A cloud dying *during* the upload batch of a sync round: the
    scheduler abandons it, the round commits, and the data remains
    reconstructable for a device that never saw the dead cloud alive."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    injector = FaultInjector(sim)
    writer = make_device(
        sim, clouds, "writer", seed=41, link=SLOW_LINK, config=CONFIG,
    )
    # ~2 MB over 20 Mbps links: the batch runs for several virtual
    # seconds, so an outage at t=0.5 lands mid-transfer.
    writer.fs.write_file("/big", payload(400, size=2 * 1024 * 1024),
                         mtime=sim.now)
    injector.outage(clouds[2], start=0.5)
    report = sim.run_process(writer.sync())
    assert report.committed_version == 1
    upload = report.upload_report.report_for("/big")
    assert upload.available_at is not None
    assert upload.degraded  # c2's fair share was abandoned mid-batch
    assert upload.blocks_per_cloud["c2"] < upload.blocks_per_cloud["c0"]
    # A fresh device (c2 still dark) reconstructs everything.
    reader = make_device(sim, clouds, "reader", seed=42, config=CONFIG)
    sim.run_process(reader.sync())
    assert reader.fs.read_file("/big") == payload(400, size=2 * 1024 * 1024)
