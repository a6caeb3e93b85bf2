"""Lock-crash scenarios: breaking a dead holder's lock, bounded state."""

import numpy as np
import pytest

from repro.cloud import SimulatedCloud
from repro.core import UniDriveConfig
from repro.simkernel import Simulator
from repro.workloads import make_device

#: Short ΔT so crashed-holder tests stay quick in virtual time.
CONFIG = UniDriveConfig(
    theta=64 * 1024, lock_stale_seconds=30.0, lock_acquire_timeout=900.0,
)

chaos_smoke = pytest.mark.chaos_smoke


def payload(seed, size=64 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def wait(sim, seconds):
    yield sim.timeout(seconds)


@chaos_smoke
def test_crashed_holder_lock_is_broken_and_sync_proceeds():
    """End-to-end: the holder crashes (refresher dead, lock files left
    behind), a contender waits out ΔT, breaks the stale lock, acquires,
    and commits its pending change."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    crasher = make_device(sim, clouds, "crasher", seed=1, config=CONFIG)
    sim.run_process(crasher.lock.acquire())
    assert crasher.lock.held
    # The crash: the refresher process dies with the lock files still in
    # every cloud's lock directory — exactly what a killed device leaves.
    crasher.lock._refresher.interrupt("crash")
    contender = make_device(sim, clouds, "contender", seed=2, config=CONFIG)
    contender.fs.write_file("/doc", payload(10), mtime=sim.now)
    started = sim.now
    report = sim.run_process(contender.sync())
    elapsed = sim.now - started
    # The commit happened, and only after the ΔT staleness window: the
    # contender could not have stolen a *live* holder's lock early.
    assert report.committed_version == 1
    assert elapsed >= CONFIG.lock_stale_seconds
    assert elapsed < CONFIG.lock_acquire_timeout
    # The dead holder's lock files were actually broken (deleted).
    for cloud in clouds:
        names = [
            entry.name
            for entry in cloud.store.list_folder(CONFIG.lock_dir)
        ]
        assert "lock_crasher" not in names


def test_live_holder_is_not_broken():
    """Counterpart guarantee: a *refreshing* holder keeps the lock; the
    contender times out instead of breaking it."""
    from repro.core import LockTimeout

    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    import dataclasses

    short = dataclasses.replace(CONFIG, lock_acquire_timeout=120.0)
    holder = make_device(sim, clouds, "holder", seed=3, config=CONFIG)
    sim.run_process(holder.lock.acquire())
    contender = make_device(sim, clouds, "contender", seed=20, config=short)
    with pytest.raises(LockTimeout):
        sim.run_process(contender.lock.acquire())
    assert holder.lock.held
    for cloud in clouds:
        names = [
            entry.name for entry in cloud.store.list_folder(CONFIG.lock_dir)
        ]
        assert "lock_holder" in names


def test_first_seen_observations_stay_bounded():
    """Regression: a contender watching a long-held lock used to retain
    one (cloud, name, mtime) key per observed refresh forever; the map
    must stay bounded by the number of *live* lock files."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    holder = make_device(sim, clouds, "holder", seed=5, config=CONFIG)
    sim.run_process(holder.lock.acquire())
    contender = make_device(sim, clouds, "contender", seed=6, config=CONFIG)
    period = CONFIG.lock_stale_seconds / 3.0
    rounds = 12
    for _ in range(rounds):
        # Let the holder's refresher mint a fresh mtime, then have the
        # contender observe the lock directory once.
        sim.run_process(wait(sim, period))
        locked = sim.run_process(contender.lock._try_once())
        assert locked < contender.lock.quorum  # holder still wins
    # One live (holder) lock file per cloud; stale observations from
    # earlier refreshes must have been pruned.  Pre-fix this grows to
    # ~rounds * len(clouds) entries.
    assert len(contender.lock._first_seen) <= len(clouds)
    assert holder.lock.held


def test_interrupted_acquire_withdraws_lock_files():
    """Regression: an Interrupt landing mid-acquisition-round (after the
    lock files were uploaded, before the contention check resolved) used
    to leave the contender's lock files on every cloud — forcing peers
    to wait out the ΔT staleness break.  acquire() must withdraw them
    before propagating the exception."""
    from repro.netsim import LinkProfile
    from repro.simkernel import Interrupt

    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    holder = make_device(sim, clouds, "holder", seed=7, config=CONFIG)
    sim.run_process(holder.lock.acquire())
    # Latency-carrying links: an acquisition round takes ~2 RTTs, so an
    # interrupt at t+0.07 lands after the uploads, during the listings.
    profile = LinkProfile(
        up_mbps=20.0, down_mbps=40.0, rtt_seconds=0.05,
        latency_jitter=0.0, failure_rate=0.0, volatility=0.0,
        fade_probability=0.0, diurnal_amplitude=0.0,
    )
    contender = make_device(
        sim, clouds, "contender", seed=30, link=profile, config=CONFIG
    )
    proc = sim.process(contender.lock.acquire())

    def saboteur():
        yield sim.timeout(0.07)
        assert any(
            entry.name == "lock_contender"
            for cloud in clouds
            for entry in cloud.store.list_folder(CONFIG.lock_dir)
        ), "interrupt must land after the round's uploads"
        proc.interrupt("mid-round fault")

    sim.process(saboteur())
    with pytest.raises(Interrupt):
        sim.run()
    assert not contender.lock.held
    for cloud in clouds:
        names = [
            entry.name for entry in cloud.store.list_folder(CONFIG.lock_dir)
        ]
        assert "lock_contender" not in names
        assert "lock_holder" in names  # the holder was untouched


@chaos_smoke
def test_sync_failure_inside_lock_releases_immediately():
    """Regression: a fault striking *inside* the locked commit section
    (here: every metadata replica turns out stale) must release the
    quorum lock on the error path — a peer acquires right away instead
    of waiting out the ΔT staleness break."""
    from repro.core import SyncError
    from repro.core.metadata import VersionStamp
    from repro.core.serialization import serialize_version
    import posixpath

    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=9, config=CONFIG)
    writer.fs.write_file("/one", payload(1), mtime=sim.now)
    assert sim.run_process(writer.sync()).committed_version == 1
    # Poison: every cloud advertises v5, but no replica can serve it —
    # the in-lock metadata fetch fails after the lock is held.
    bogus = serialize_version(VersionStamp(5, "ghost"))
    for cloud in clouds:
        cloud.store.put(
            posixpath.join(CONFIG.meta_dir, "version"), bogus, mtime=sim.now
        )
    writer.fs.write_file("/two", payload(2), mtime=sim.now)
    with pytest.raises(SyncError):
        sim.run_process(writer.sync())
    assert not writer.lock.held
    assert not writer.journal.lock_pending
    for cloud in clouds:
        names = [
            entry.name for entry in cloud.store.list_folder(CONFIG.lock_dir)
        ]
        assert "lock_writer" not in names
    # A peer acquires immediately — far below the staleness window.
    contender = make_device(sim, clouds, "contender", seed=10, config=CONFIG)
    started = sim.now
    sim.run_process(contender.lock.acquire())
    assert contender.lock.held
    assert sim.now - started < 1.0


def test_withdraw_retries_transient_delete_failures():
    """Regression: one transient delete failure during withdrawal used
    to leave that cloud's lock file behind — every peer read it as live
    contention and had to wait out the full ΔT staleness break before
    acquiring.  ``_withdraw`` must retry transient failures so a clean
    release leaves no files on any reachable cloud."""
    from repro.cloud.errors import RequestFailedError

    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    first = make_device(sim, clouds, "first", seed=11, config=CONFIG)

    # Every cloud's first delete fails transiently (an API blip), then
    # the cloud recovers — exactly the shape a one-shot delete loses.
    attempts = {}

    def make_flaky(conn):
        real = conn.delete

        def flaky(path):
            count = attempts[conn.cloud_id] = attempts.get(conn.cloud_id, 0) + 1
            if count == 1:
                yield sim.timeout(0.01)
                raise RequestFailedError(conn.cloud_id, "transient blip")
            yield from real(path)

        conn.delete = flaky

    for conn in first.connections:
        make_flaky(conn)

    sim.run_process(first.lock.acquire())
    sim.run_process(first.lock.release())
    # The retries landed: no lock file left anywhere.
    for cloud in clouds:
        names = [
            entry.name for entry in cloud.store.list_folder(CONFIG.lock_dir)
        ]
        assert "lock_first" not in names
    assert all(count >= 2 for count in attempts.values())

    # A second writer therefore syncs without waiting out ΔT.
    second = make_device(sim, clouds, "second", seed=12, config=CONFIG)
    second.fs.write_file("/doc", payload(21), mtime=sim.now)
    started = sim.now
    report = sim.run_process(second.sync())
    elapsed = sim.now - started
    assert report.committed_version == 1
    assert elapsed < CONFIG.lock_stale_seconds / 3
