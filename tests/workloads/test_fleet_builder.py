"""The fleet builder's seed contract and link forms."""

import numpy as np
import pytest

from repro.cloud import CloudConnection, SimulatedCloud
from repro.netsim import LinkProfile
from repro.simkernel import Simulator
from repro.workloads import connect, make_fleet

SLOW = LinkProfile(up_mbps=2.0, down_mbps=4.0, failure_rate=0.0)


def first_draw(rng):
    return rng.integers(2**62)


def test_device_d_draws_from_seed_plus_31d_and_its_connections_add_i():
    sim, clouds, devices = make_fleet(devices=3, clouds=4, seed=5)
    assert [cloud.cloud_id for cloud in clouds] == [
        "cloud0", "cloud1", "cloud2", "cloud3"]
    for d, device in enumerate(devices):
        seed = 5 + 31 * d
        assert device.device == f"device{d}"
        assert device.sim is sim
        assert first_draw(device.rng) == first_draw(
            np.random.default_rng(seed))
        for i, conn in enumerate(device.connections):
            assert conn.cloud is clouds[i]
            # A connection draws while it builds its link: compare
            # with one built by hand from default_rng(seed + i).
            ref = CloudConnection(sim, clouds[i], conn.profile,
                                  np.random.default_rng(seed + i))
            assert (conn._rng.bit_generator.state
                    == ref._rng.bit_generator.state)


def test_link_is_instant_one_profile_or_one_per_cloud():
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(2)]
    instant = connect(sim, clouds, 0)
    assert all(conn.profile.up_mbps == 1e6 for conn in instant)
    assert [c.profile for c in connect(sim, clouds, 0, SLOW)] == [SLOW] * 2
    fast = LinkProfile(up_mbps=50.0, down_mbps=50.0)
    assert [c.profile for c in connect(sim, clouds, 0, [SLOW, fast])] == [
        SLOW, fast]
    with pytest.raises(ValueError):
        connect(sim, clouds, 0, [SLOW])
