"""Durability chaos suite: rot, provider loss, device crash — and healing.

Each scenario injects one of the durability fault kinds
(``silent_corruption``, ``permanent_loss``, ``client_crash``) and
asserts the self-healing machinery restores the paper's invariants:
byte-identical reconstruction, full fair-share placement, zero orphans.
"""

import posixpath

import numpy as np
import pytest

from repro import obs
from repro.cloud import SimulatedCloud
from repro.core import Scrubber, SyncJournal, UniDriveConfig, fair_share
from repro.faults import FaultInjector
from repro.fsmodel import VirtualFileSystem
from repro.netsim import LinkProfile
from repro.simkernel import Simulator
from repro.workloads import make_device

CONFIG = UniDriveConfig(theta=64 * 1024, lock_stale_seconds=30.0)

chaos_smoke = pytest.mark.chaos_smoke


#: Slow links: transfers take virtual seconds, so a mid-upload crash
#: actually interrupts the batch.
SLOW_LINK = LinkProfile(
    up_mbps=2.0, down_mbps=4.0, rtt_seconds=0.05, latency_jitter=0.0,
    failure_rate=0.0, volatility=0.0, fade_probability=0.0,
    diurnal_amplitude=0.0,
)


def payload(seed, size=96 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def wait(sim, seconds):
    yield sim.timeout(seconds)


def counter_total(metrics, name):
    """Sum one counter across all label combinations."""
    return sum(
        value for key, value in metrics.snapshot()["counters"].items()
        if key == name or key.startswith(name + "{")
    )


def block_locations(client):
    """Every (segment_id, index, cloud_id) the image places."""
    out = []
    for segment_id, record in client.image.segments.items():
        for index, cloud_id in record.locations.items():
            out.append((segment_id, index, cloud_id))
    return out


# -- permanent provider loss -------------------------------------------------


@chaos_smoke
def test_permanent_loss_decommission_restores_fair_share():
    """N=5, K_r=3: one provider dies for good (data wiped).  A single
    decommission pass re-encodes its share onto the survivors, after
    which every segment meets fair share and every file decodes
    byte-identically on a fresh device that never saw the dead cloud."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=1, config=CONFIG)
    files = {"/a": payload(1), "/b": payload(2, size=160 * 1024)}
    for path, data in files.items():
        writer.fs.write_file(path, data, mtime=sim.now)
    assert sim.run_process(writer.sync()).committed_version == 1

    injector = FaultInjector(sim)
    injector.permanent_loss(clouds[2], at=1.0)
    sim.run_process(wait(sim, 2.0))
    assert clouds[2].store.used_bytes == 0

    with obs.isolated(sim=sim) as (_tracer, metrics):
        sim.run_process(Scrubber(writer).decommission("c2", wipe=False))
        assert counter_total(metrics, "blocks_repaired") > 0

    share = fair_share(CONFIG.k_blocks, CONFIG.k_reliability)
    survivors = {"c0", "c1", "c3", "c4"}
    for record in writer.image.segments.values():
        assert set(record.locations.values()) <= survivors
        for cloud_id in survivors:
            held = sum(
                1 for c in record.locations.values() if c == cloud_id
            )
            assert held >= share
    # A fresh device enrolled only with the survivors reconstructs all.
    reader = make_device(
        sim, [c for c in clouds if c.cloud_id != "c2"], "reader", seed=9,
        config=CONFIG,
    )
    sim.run_process(reader.sync())
    for path, data in files.items():
        assert reader.fs.read_file(path) == data


# -- silent corruption -------------------------------------------------------


@chaos_smoke
def test_silent_corruption_detected_on_download_and_refetched():
    """Bit rot on a stored block: the download path spots the hash
    mismatch, treats the pair as an erasure, fetches another replica,
    and the file still materializes byte-identically."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=11, config=CONFIG)
    data = payload(21, size=128 * 1024)
    writer.fs.write_file("/doc", data, mtime=sim.now)
    sim.run_process(writer.sync())

    # Rot one referenced block (pick deterministically).
    segment_id, index, cloud_id = sorted(block_locations(writer))[0]
    path = writer.pipeline.block_path(segment_id, index)
    cloud = next(c for c in clouds if c.cloud_id == cloud_id)
    injector = FaultInjector(sim)
    injector.silent_corruption(cloud, path, at=0.5)
    sim.run_process(wait(sim, 1.0))
    assert injector.events[-1].kind == "corruption"

    with obs.isolated(sim=sim) as (_tracer, metrics):
        reader = make_device(sim, clouds, "reader", seed=12, config=CONFIG)
        sim.run_process(reader.sync())
        assert reader.fs.read_file("/doc") == data
        assert counter_total(metrics, "corrupt_detected") >= 1


def test_silent_corruption_deep_scrub_repairs_in_place():
    """A deep scrub finds rot a shallow audit cannot (size unchanged),
    repairs the block from surviving replicas, and a second deep audit
    comes back clean."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=31, config=CONFIG)
    data = payload(41, size=128 * 1024)
    writer.fs.write_file("/doc", data, mtime=sim.now)
    sim.run_process(writer.sync())

    segment_id, index, cloud_id = sorted(block_locations(writer))[-1]
    path = writer.pipeline.block_path(segment_id, index)
    cloud = next(c for c in clouds if c.cloud_id == cloud_id)
    cloud.store.corrupt(path)

    scrubber = Scrubber(writer)
    shallow = sim.run_process(scrubber.audit(deep=False))
    assert shallow.clean  # size-preserving rot is invisible to shallow

    with obs.isolated(sim=sim) as (_tracer, metrics):
        audit, fixed = sim.run_process(
            scrubber.scrub_round(deep=True, repair=True)
        )
        assert (segment_id, index, cloud_id) in audit.corrupt
        assert (segment_id, index, cloud_id) in fixed.repaired
        assert counter_total(metrics, "blocks_repaired") == 1
    again = sim.run_process(scrubber.audit(deep=True))
    assert again.clean
    # The repaired replica serves reads again.
    reader = make_device(sim, clouds, "reader", seed=32, config=CONFIG)
    sim.run_process(reader.sync())
    assert reader.fs.read_file("/doc") == data


# -- client crash & resume ---------------------------------------------------


@chaos_smoke
def test_client_crash_mid_upload_resumes_without_reuploading():
    """Power loss mid-upload-batch: the journal credits every block that
    landed, so the resumed round re-uploads none of them (their server
    mtimes never change), commits, and leaves zero orphans."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    disk = VirtualFileSystem()
    writer = make_device(
        sim, clouds, "writer", fs=disk, seed=51, link=SLOW_LINK, config=CONFIG,
    )
    data = payload(61, size=1024 * 1024)
    disk.write_file("/big", data, mtime=sim.now)

    proc = sim.process(writer.sync())
    injector = FaultInjector(sim)
    injector.client_crash(writer, proc, at=0.6)
    sim.run()
    assert injector.events[-1].kind == "crash"
    # Mid-upload, pre-commit: the lock phase never started.
    assert not writer.journal.lock_pending

    landed = [
        (sid, idx, cid)
        for sid, placed in writer.journal.blocks.items()
        for idx, cid in placed.items()
    ]
    assert landed, "crash landed after some uploads acknowledged"
    # Recorded => landed: every journaled block really is on its cloud.
    mtimes = {}
    for sid, idx, cid in landed:
        cloud = next(c for c in clouds if c.cloud_id == cid)
        path = posixpath.join(CONFIG.blocks_dir, f"{sid}.{idx}")
        mtimes[(sid, idx, cid)] = cloud.store.stat(path).mtime

    # The device reboots: same disk, same journal, fresh connections.
    revived = make_device(
        sim, clouds, "writer", fs=disk, seed=52,
        journal=SyncJournal.from_bytes(writer.journal.to_bytes()),
        config=CONFIG,
    )
    report = sim.run_process(revived.sync())
    assert report.committed_version == 1
    assert not revived.journal.active
    # Zero re-uploads of already-completed blocks: server mtimes of all
    # journaled blocks are untouched by the resumed round.
    for key, mtime in mtimes.items():
        sid, idx, cid = key
        cloud = next(c for c in clouds if c.cloud_id == cid)
        path = posixpath.join(CONFIG.blocks_dir, f"{sid}.{idx}")
        assert cloud.store.stat(path).mtime == mtime

    # Zero orphans and full integrity after resume.
    audit = sim.run_process(Scrubber(revived).audit(deep=True))
    assert audit.clean
    reader = make_device(sim, clouds, "reader", seed=53, config=CONFIG)
    sim.run_process(reader.sync())
    assert reader.fs.read_file("/big") == data


def test_crash_drops_decoded_metadata_and_keeps_the_journal():
    """The decoded-metadata cache is process memory: a power loss takes
    it, and the next incarnation decrypts what it reads again."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=54, config=CONFIG)
    writer.fs.write_file("/a", payload(62), mtime=sim.now)
    sim.run_process(writer.sync())
    reader = make_device(sim, clouds, "reader", seed=55, config=CONFIG)
    sim.run_process(reader.sync())
    assert set(writer._held) == set(reader._held) == {"base", "delta"}
    journal = reader.journal
    reader.crash()
    writer.crash()
    assert reader._held == {} and writer._held == {}
    assert reader.journal is journal
    writer.fs.write_file("/b", payload(63), mtime=sim.now)
    sim.run_process(writer.sync())
    sim.run_process(reader.sync())
    assert reader.fs.read_file("/b") == payload(63)


@chaos_smoke
def test_crashed_holder_lock_break_then_scrub_converges():
    """A device dies holding the lock with half an upload batch on the
    clouds.  A peer breaks the stale lock and commits its own change;
    one scrub round then deletes the dead round's orphans and the
    folder is fully decodable and clean."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    crasher = make_device(
        sim, clouds, "crasher", seed=71, link=SLOW_LINK, config=CONFIG,
    )
    crasher.fs.write_file("/dead", payload(81, size=512 * 1024),
                          mtime=sim.now)
    proc = sim.process(crasher.sync())
    injector = FaultInjector(sim)
    injector.client_crash(crasher, proc, at=0.3)
    sim.run()
    # The dead round left unreferenced blocks behind, and never reached
    # the commit (no metadata on any cloud).
    leftovers = sum(
        len(placed) for placed in crasher.journal.blocks.values()
    )
    assert leftovers > 0
    assert not crasher.journal.lock_pending
    # Simulate the worst case: the crash also left lock files (died
    # between uploading them and withdrawing).
    sim.run_process(crasher.lock._try_once())

    survivor = make_device(sim, clouds, "survivor", seed=72, config=CONFIG)
    good = payload(82)
    survivor.fs.write_file("/alive", good, mtime=sim.now)
    started = sim.now
    report = sim.run_process(survivor.sync())
    assert report.committed_version == 1
    assert sim.now - started >= CONFIG.lock_stale_seconds  # stale break

    audit, fixed = sim.run_process(
        Scrubber(survivor).scrub_round(deep=True, repair=True)
    )
    assert audit.orphan_count >= leftovers
    assert fixed is not None and fixed.orphans_deleted == audit.orphan_count
    assert not audit.missing and not audit.corrupt
    again = sim.run_process(Scrubber(survivor).audit(deep=True))
    assert again.clean
    reader = make_device(sim, clouds, "reader", seed=73, config=CONFIG)
    sim.run_process(reader.sync())
    assert reader.fs.read_file("/alive") == good
