"""Adversarial lock tests: flapping clouds, racing devices, determinism."""

import numpy as np

from repro.core.config import UniDriveConfig
from repro.core.lock import LockTimeout
from repro.netsim import LinkProfile
from repro.workloads import make_fleet

CONFIG = UniDriveConfig(lock_stale_seconds=60.0, lock_acquire_timeout=900.0,
                        lock_backoff_max=2.0)


def flaky_profile(failure_rate):
    return LinkProfile(
        up_mbps=50.0, down_mbps=50.0, rtt_seconds=0.05, latency_jitter=0.0,
        failure_rate=failure_rate, volatility=0.0, fade_probability=0.0,
        diurnal_amplitude=0.0,
    )


def make_locks(n_devices, failure_rate=0.0, seed=0):
    """The fleet's devices' quorum locks over flaky links."""
    sim, clouds, devices = make_fleet(
        n_devices, seed=seed, link=flaky_profile(failure_rate), config=CONFIG
    )
    return sim, clouds, [device.lock for device in devices]


def test_mutual_exclusion_with_transient_failures():
    """5% request failures: everyone still enters exactly once, and the
    critical sections never overlap."""
    sim, clouds, locks = make_locks(4, failure_rate=0.05, seed=1)
    sections = []

    def worker(lock):
        yield from lock.acquire()
        enter = sim.now
        yield sim.timeout(8.0)
        sections.append((enter, sim.now, lock.device))
        yield from lock.release()

    for lock in locks:
        sim.process(worker(lock))
    sim.run()
    assert len(sections) == 4
    ordered = sorted(sections)
    for (a_start, a_end, _), (b_start, b_end, _) in zip(ordered, ordered[1:]):
        assert a_end <= b_start + 1e-9, (a_start, a_end, b_start)


def test_exclusion_while_clouds_flap():
    """Clouds go down and come back while devices contend; as long as a
    majority stays reachable at lock time, sections never overlap."""
    sim, clouds, locks = make_locks(3, failure_rate=0.02, seed=2)
    sections = []

    def flapper():
        rng = np.random.default_rng(3)
        while sim.now < 400.0:
            victim = int(rng.integers(0, len(clouds)))
            clouds[victim].set_available(False)
            yield sim.timeout(float(rng.uniform(5.0, 15.0)))
            clouds[victim].set_available(True)
            yield sim.timeout(float(rng.uniform(5.0, 20.0)))

    def worker(lock, delay):
        yield sim.timeout(delay)
        try:
            yield from lock.acquire()
        except LockTimeout:
            return
        enter = sim.now
        yield sim.timeout(6.0)
        sections.append((enter, sim.now, lock.device))
        yield from lock.release()

    sim.process(flapper())
    for index, lock in enumerate(locks):
        sim.process(worker(lock, 3.0 * index))
    sim.run(until=1500.0)
    assert len(sections) >= 2  # most attempts go through
    ordered = sorted(sections)
    for (a_start, a_end, _), (b_start, b_end, _) in zip(ordered, ordered[1:]):
        assert a_end <= b_start + 1e-9


def test_lock_is_deterministic():
    def run():
        sim, clouds, locks = make_locks(3, failure_rate=0.05, seed=4)
        order = []

        def worker(lock):
            yield from lock.acquire()
            order.append((lock.device, sim.now))
            yield sim.timeout(2.0)
            yield from lock.release()

        for lock in locks:
            sim.process(worker(lock))
        sim.run()
        return order

    assert run() == run()
