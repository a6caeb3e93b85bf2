"""Regression tests for the latent failure-path bugs.

Each test reproduces a bug the fault-injection harness exposed and
fails on the pre-fix code:

* ``_replicate`` retried ``CloudUnavailableError`` back-to-back,
  burning the 10-virtual-second unavailability probe ``max_retries``
  times per payload per down cloud.
* ``_replicate`` retried transients with *no* delay (no backoff).
* ``_publish_delta`` extended the delta of the first merely *reachable*
  cloud; a replica that missed commits during an outage would silently
  drop those committed ops from the log for every future reader.
* ``_fetch_metadata`` adopted the first reachable cloud's image even
  when the version poll had already proven a newer version exists.

* One rotted replica of ``meta/base`` (or ``meta/delta``) made every
  reader's ``sync()`` raise ``UnicodeDecodeError`` out of
  ``_fetch_metadata`` although four healthy replicas were a request
  away: undecodable bytes were a crash, not a stale replica.

(The ``ThroughputEstimator.record_failure`` no-op on unprobed clouds
and the unbounded ``QuorumLock._first_seen`` growth are pinned in
``tests/core/test_probing.py`` and ``test_lock_crash.py``.)
"""

import numpy as np
import pytest

from repro import obs
from repro.cloud import SimulatedCloud
from repro.core import UniDriveConfig
from repro.core.client import SyncError
from repro.core.metadata import MetadataError
from repro.faults import FaultInjector
from repro.simkernel import Simulator
from repro.workloads import make_device

CONFIG = UniDriveConfig(theta=64 * 1024)

#: Fold thresholds pushed out of reach, so commits exercise the delta
#: path instead of folding every tiny test base.
DELTA_CONFIG = UniDriveConfig(
    theta=64 * 1024, delta_merge_ratio=1000.0, delta_merge_bytes=10 ** 9,
)


def payload(seed, size=8 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def test_replicate_fails_fast_on_unavailable_cloud():
    """One down cloud must cost ~one unavailability timeout, not
    max_retries of them back-to-back (4 x 10 s pre-fix)."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=1, config=CONFIG)
    clouds[0].set_available(False)
    started = sim.now
    sim.run_process(writer._replicate([("/unidrive/meta/version", b"v")]))
    elapsed = sim.now - started
    # Post-fix: a single 10 s probe (clouds run in parallel).  Pre-fix:
    # four serialized probes = ~40 s.
    assert elapsed < 15.0
    # The quorum still committed on the live clouds.
    for cloud in clouds[1:]:
        assert cloud.store.get("/unidrive/meta/version") == b"v"


def test_replicate_backs_off_between_transient_retries():
    """A transient failure must be retried after a (jittered) backoff
    delay, not hammered immediately."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=2, config=CONFIG)
    injector = FaultInjector(sim)
    injector.force_drops(writer.connections[1], count=1)
    started = sim.now
    sim.run_process(writer._replicate([("/unidrive/meta/delta", b"d" * 64)]))
    elapsed = sim.now - started
    # The retry succeeded...
    assert clouds[1].store.get("/unidrive/meta/delta") == b"d" * 64
    # ...after at least the jitter floor of the first backoff
    # (base_delay * (1 - jitter) = 0.25 s).  Pre-fix: immediate retry,
    # elapsed ~ 0.
    floor = writer.retry.base_delay * (1.0 - writer.retry.jitter)
    assert elapsed >= floor * 0.9
    assert elapsed < 10.0


def test_publish_delta_preserves_ops_committed_during_outage():
    """The lost-op scenario: a cloud misses a delta commit during its
    outage, comes back, and must NOT become the donor whose stale delta
    the next commit extends (silently dropping the missed op)."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=3, config=DELTA_CONFIG)
    # v1: baseline commit, full base everywhere.
    writer.fs.write_file("/seed", payload(30), mtime=sim.now)
    assert sim.run_process(writer.sync()).committed_version == 1
    # v2: committed while c0 is dark — c0 keeps the v1 base and an
    # empty (marker-only) delta.
    clouds[0].set_available(False)
    writer.fs.write_file("/x", payload(31), mtime=sim.now)
    assert sim.run_process(writer.sync()).committed_version == 2
    # c0 recovers — reachable again, but stale.
    clouds[0].set_available(True)
    # v3: pre-fix, _publish_delta reads the delta from the *first
    # reachable* cloud = stale c0 and extends it, so the replicated log
    # loses /x's ops.  Post-fix the donor must be a fresh cloud.
    writer.fs.write_file("/y", payload(32), mtime=sim.now)
    assert sim.run_process(writer.sync()).committed_version == 3
    # A brand-new device must see every committed file — including via
    # c0, which the v3 replication healed (fresh delta extends c0's v1
    # base consistently, thanks to the base-version marker).
    observer = make_device(
        sim, clouds, "observer", seed=4, config=DELTA_CONFIG,
    )
    report = sim.run_process(observer.sync())
    assert sorted(report.downloaded_files) == ["/seed", "/x", "/y"]
    assert observer.fs.read_file("/x") == payload(31)
    assert observer.fs.read_file("/y") == payload(32)
    assert observer.image.version.counter == 3


def test_fetch_metadata_skips_stale_cloud():
    """When the version poll proves v_new exists, a cloud whose pair
    only reconstructs an older version must be skipped, not adopted."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=5, config=CONFIG)
    writer.fs.write_file("/one", payload(50), mtime=sim.now)
    sim.run_process(writer.sync())
    clouds[0].set_available(False)
    writer.fs.write_file("/two", payload(51), mtime=sim.now)
    sim.run_process(writer.sync())
    clouds[0].set_available(True)
    # c0 is the first connection and reachable, but holds only v1.
    observer = make_device(sim, clouds, "observer", seed=6, config=CONFIG)
    image = sim.run_process(observer._fetch_metadata(expect=2))
    assert image.version.counter == 2
    assert "/two" in image.files


def rot(cloud, path, offset=None, size=None):
    """Flip one byte of a stored object (bit rot the provider missed)."""
    blob = bytearray(cloud.store.get(path))
    offset = len(blob) // 2 if offset is None else offset
    blob[offset] ^= 0x5A
    cloud.store.put(path, bytes(blob[:size]), mtime=0.0)


@pytest.mark.parametrize("name", ["base", "delta"])
def test_fetch_metadata_skips_undecodable_replica(name):
    """A replica that no longer decrypts to metadata is a bad replica:
    skip it (reason ``undecodable``) and read the next cloud."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=7, config=DELTA_CONFIG)
    writer.fs.write_file("/one", payload(60), mtime=sim.now)
    sim.run_process(writer.sync())
    writer.fs.write_file("/two", payload(61), mtime=sim.now)
    sim.run_process(writer.sync())  # a real delta on top of the base
    rot(clouds[0], f"/unidrive/meta/{name}")
    reader = make_device(sim, clouds, "reader", seed=8, config=DELTA_CONFIG)
    with obs.isolated(sim=sim) as (_tracer, metrics):
        report = sim.run_process(reader.sync())
        skips = metrics.counter_value(
            "metadata_skips", cloud="c0", reason="undecodable"
        )
    assert sorted(report.downloaded_files) == ["/one", "/two"]
    assert reader.fs.read_file("/two") == payload(61)
    assert skips == 1
    # What it kept is what decoded — the healthy replica's bytes.
    assert reader._held[name][0] == clouds[1].store.get(
        f"/unidrive/meta/{name}"
    )


def test_fetch_metadata_fails_typed_when_every_replica_is_rotten():
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=9, config=CONFIG)
    writer.fs.write_file("/one", payload(62), mtime=sim.now)
    sim.run_process(writer.sync())
    for cloud in clouds:
        # Truncated to a misaligned length, garbled, emptied of padding.
        rot(cloud, "/unidrive/meta/base", size=100 + int(cloud.cloud_id[1]))
    reader = make_device(sim, clouds, "reader", seed=10, config=CONFIG)
    with pytest.raises(SyncError, match="undecodable"):
        sim.run_process(reader.sync())
    assert "base" not in reader._held  # never cached


def test_publish_delta_skips_undecodable_donor():
    """The committer extends the first *decodable* fresh delta; a rotted
    one neither crashes the commit nor lands in the cache."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    first = make_device(sim, clouds, "first", seed=11, config=DELTA_CONFIG)
    first.fs.write_file("/one", payload(63), mtime=sim.now)
    sim.run_process(first.sync())
    first.fs.write_file("/two", payload(64), mtime=sim.now)
    sim.run_process(first.sync())
    second = make_device(sim, clouds, "second", seed=12, config=DELTA_CONFIG)
    sim.run_process(second.sync())
    rot(clouds[0], "/unidrive/meta/delta")
    second.fs.write_file("/three", payload(65), mtime=sim.now)
    report = sim.run_process(second.sync())
    assert report.committed_version == 3
    observer = make_device(
        sim, clouds, "observer", seed=13, config=DELTA_CONFIG,
    )
    sim.run_process(observer.sync())
    assert sorted(observer.image.files) == ["/one", "/three", "/two"]
    with pytest.raises(MetadataError):
        second._decode("delta", b"\x00" * 24)
    assert second._held["delta"][0] == clouds[0].store.get(
        "/unidrive/meta/delta"
    )  # still the blob it published, not the garbage
