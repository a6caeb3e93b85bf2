"""Tests for device heartbeats and fully-synced over-provision GC."""

import numpy as np
import pytest

from repro.core import UniDriveConfig
from repro.workloads import make_device, make_fleet

CONFIG = UniDriveConfig(theta=64 * 1024)


def payload(seed, size=180 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def total_blocks(clouds):
    return sum(
        len(c.store.list_folder(CONFIG.blocks_dir)) for c in clouds
    )


def publish_heartbeats(sim, *clients):
    """One more round each: its version poll carries the heartbeat the
    last round left due."""
    for client in clients:
        sim.run_process(client.sync())


def test_heartbeats_published_after_sync():
    sim, clouds, clients = make_fleet(2, config=CONFIG)
    clients[0].fs.write_file("/f", payload(1), mtime=sim.now)
    sim.run_process(clients[0].sync())
    sim.run_process(clients[1].sync())
    # Due, not yet published: no round waits on its own heartbeat.
    assert sim.run_process(clients[0].fleet_applied_versions()) == {}
    publish_heartbeats(sim, *clients)
    versions = sim.run_process(clients[0].fleet_applied_versions())
    assert versions == {"device0": 1, "device1": 1}


def lagging_fleet():
    """Device 0 at version 2, device 1's heartbeat still at version 1."""
    sim, clouds, clients = make_fleet(2, config=CONFIG)
    clients[0].fs.write_file("/f", payload(2), mtime=sim.now)
    sim.run_process(clients[0].sync())
    sim.run_process(clients[1].sync())  # both at version 1
    publish_heartbeats(sim, clients[1])
    # Device 0 commits version 2; device 1 has not applied it yet.
    clients[0].fs.write_file("/g", payload(3), mtime=sim.now)
    sim.run_process(clients[0].sync())
    publish_heartbeats(sim, clients[0])
    return sim, clouds, clients


def test_gc_waits_for_lagging_device():
    sim, clouds, clients = lagging_fleet()
    ran = sim.run_process(clients[0].gc_if_fully_synced())
    assert ran is False  # device1's heartbeat still says version 1
    before = total_blocks(clouds)
    # Once device 1 catches up, GC proceeds and reclaims extras.
    sim.run_process(clients[1].sync())
    assert sim.run_process(clients[0].gc_if_fully_synced()) is False
    publish_heartbeats(sim, clients[1])
    ran = sim.run_process(clients[0].gc_if_fully_synced())
    assert ran is True
    sim.run()
    assert total_blocks(clouds) < before


@pytest.mark.parametrize("rotted, seen", [
    # One replica rots, four healthy ones remain: read the next cloud.
    pytest.param([0], 1, id="one-replica"),
    # Rotted everywhere: the device is listed, so it exists, but what
    # it has applied is unknown — and unknown is not caught up.
    pytest.param(range(5), None, id="every-replica"),
])
def test_rotted_heartbeat_does_not_hide_lagging_device(rotted, seen):
    sim, clouds, clients = lagging_fleet()
    for index in rotted:
        clouds[index].store.corrupt(clients[1]._heartbeat_path)
    versions = sim.run_process(clients[0].fleet_applied_versions())
    assert versions == {"device0": 2, "device1": seen}
    before = total_blocks(clouds)
    assert sim.run_process(clients[0].gc_if_fully_synced()) is False
    sim.run()
    assert total_blocks(clouds) == before


def test_gc_keeps_data_recoverable():
    sim, clouds, clients = make_fleet(2, config=CONFIG)
    data = payload(4)
    clients[0].fs.write_file("/keep", data, mtime=sim.now)
    sim.run_process(clients[0].sync())
    sim.run_process(clients[1].sync())
    publish_heartbeats(sim, *clients)
    assert sim.run_process(clients[0].gc_if_fully_synced())
    sim.run()
    # After reclaiming extras only fair shares remain: exactly one
    # block per cloud per segment...
    for cloud in clouds:
        per_segment = {}
        for entry in cloud.store.list_folder(CONFIG.blocks_dir):
            seg = entry.name.rsplit(".", 1)[0]
            per_segment[seg] = per_segment.get(seg, 0) + 1
        assert all(count == 1 for count in per_segment.values())
    # ...and a third device can still reconstruct everything.
    fresh = make_device(sim, clouds, "late-device", seed=77, config=CONFIG)
    sim.run_process(fresh.sync())
    assert fresh.fs.read_file("/keep") == data


def test_no_heartbeats_means_no_gc():
    sim, clouds, clients = make_fleet(config=CONFIG)
    # Nothing synced yet: no heartbeat files exist.
    assert sim.run_process(clients[0].gc_if_fully_synced()) is False
