"""Tests for the quorum-based distributed lock."""

import numpy as np
import pytest

from repro.core.config import UniDriveConfig
from repro.core.lock import LockTimeout, QuorumLock
from repro.simkernel import Simulator
from repro.workloads import make_fleet

CONFIG = UniDriveConfig(lock_stale_seconds=120.0, lock_acquire_timeout=600.0,
                        lock_backoff_max=2.0)


def make_locks(n_devices=1, seed=0):
    """The fleet's devices' quorum locks (each shares its client's rng)."""
    sim, clouds, devices = make_fleet(n_devices, seed=seed, config=CONFIG)
    return sim, clouds, [device.lock for device in devices]


def test_single_device_acquires_and_releases():
    sim, clouds, (lock,) = make_locks()

    def proc():
        yield from lock.acquire()
        assert lock.held
        # Lock files exist on every cloud.
        for cloud in clouds:
            entries = cloud.store.list_folder(CONFIG.lock_dir)
            assert [e.name for e in entries] == ["lock_device0"]
        yield from lock.release()
        assert not lock.held
        for cloud in clouds:
            assert cloud.store.list_folder(CONFIG.lock_dir) == []
        return True

    assert sim.run_process(proc())


def test_reacquire_after_release():
    sim, clouds, (lock,) = make_locks()

    def proc():
        yield from lock.acquire()
        yield from lock.release()
        yield from lock.acquire()
        yield from lock.release()
        return "ok"

    assert sim.run_process(proc()) == "ok"


def test_double_acquire_rejected():
    sim, clouds, (lock,) = make_locks()

    def proc():
        yield from lock.acquire()
        with pytest.raises(RuntimeError):
            yield from lock.acquire()
        yield from lock.release()

    sim.run_process(proc())


def test_mutual_exclusion_two_devices():
    sim, clouds, (lock_a, lock_b) = make_locks(n_devices=2)
    holder = []

    def critical(lock, name, hold_time):
        yield from lock.acquire()
        holder.append((name, "in", sim.now))
        yield sim.timeout(hold_time)
        holder.append((name, "out", sim.now))
        yield from lock.release()

    sim.process(critical(lock_a, "A", 30.0))
    sim.process(critical(lock_b, "B", 30.0))
    sim.run()
    # Critical sections must not overlap.
    events = sorted(holder, key=lambda e: e[2])
    assert [e[1] for e in events] == ["in", "out", "in", "out"]


def test_many_devices_serialize():
    sim, clouds, locks = make_locks(n_devices=5, seed=7)
    active = []
    peak = []

    def worker(lock):
        yield from lock.acquire()
        active.append(lock.device)
        peak.append(len(active))
        yield sim.timeout(5.0)
        active.remove(lock.device)
        yield from lock.release()

    for lock in locks:
        sim.process(worker(lock))
    sim.run()
    assert max(peak) == 1
    assert len(peak) == 5  # everyone eventually got the lock


def test_quorum_tolerates_minority_outage():
    sim, clouds, (lock,) = make_locks()
    clouds[0].set_available(False)
    clouds[1].set_available(False)  # 3 of 5 still up -> quorum possible

    def proc():
        yield from lock.acquire()
        result = lock.held
        yield from lock.release()
        return result

    assert sim.run_process(proc())


def test_majority_outage_blocks_lock():
    sim, clouds, (lock,) = make_locks()
    for cloud in clouds[:3]:  # only 2 of 5 reachable
        cloud.set_available(False)

    def proc():
        try:
            yield from lock.acquire()
        except LockTimeout:
            return "timeout"

    assert sim.run_process(proc()) == "timeout"


def test_stale_lock_broken_after_delta_t():
    """A crashed holder's lock is broken once unrefreshed past ΔT."""
    sim, clouds, (lock_a, lock_b) = make_locks(n_devices=2)

    def crasher():
        yield from lock_a.acquire()
        # Simulate a crash: stop refreshing without releasing.
        lock_a._refresher.interrupt("crash")

    def recoverer():
        yield sim.timeout(10.0)  # observe the stale lock early
        try:
            yield from lock_b.acquire()
            when = sim.now
            yield from lock_b.release()
            return ("acquired", when)
        except LockTimeout:
            return ("timeout", sim.now)

    sim.process(crasher())
    proc = sim.process(recoverer())
    sim.run()
    outcome, when = proc.value
    assert outcome == "acquired"
    # Device B had to wait at least the staleness threshold.
    assert when >= CONFIG.lock_stale_seconds


def test_refresh_prevents_breaking():
    """A live holder keeps the lock well past ΔT."""
    sim, clouds, (lock_a, lock_b) = make_locks(n_devices=2)
    events = []

    def holder():
        yield from lock_a.acquire()
        events.append(("A-in", sim.now))
        yield sim.timeout(400.0)  # hold much longer than delta T
        events.append(("A-out", sim.now))
        yield from lock_a.release()

    def contender():
        yield sim.timeout(5.0)
        yield from lock_b.acquire()
        events.append(("B-in", sim.now))
        yield from lock_b.release()

    sim.process(holder())
    sim.process(contender())
    sim.run()
    order = [name for name, _ in sorted(events, key=lambda e: e[1])]
    assert order == ["A-in", "A-out", "B-in"]


def test_lock_needs_connections():
    sim = Simulator()
    with pytest.raises(ValueError):
        QuorumLock(sim, [], "d", CONFIG, np.random.default_rng(0))
