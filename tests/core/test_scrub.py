"""Unit tests for the scrub engine: audit, repair, and block hashes."""

import posixpath

import numpy as np
import pytest

from repro.core import Scrubber, UniDriveConfig, block_hash
from repro.workloads import make_device, make_fleet

CONFIG = UniDriveConfig(theta=64 * 1024, lock_backoff_max=1.0)


def content_bytes(seed, size=100 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def synced_env(seed=0, size=100 * 1024):
    sim, clouds, (client,) = make_fleet(seed=seed, config=CONFIG)
    client.fs.write_file("/doc", content_bytes(seed + 100, size),
                         mtime=sim.now)
    sim.run_process(client.sync())
    return sim, clouds, client


def some_block(client, position=0):
    """A deterministic (record, index, cloud_id, path) of the image."""
    triples = sorted(
        (sid, idx, cid)
        for sid, rec in client.image.segments.items()
        for idx, cid in rec.locations.items()
    )
    sid, idx, cid = triples[position]
    record = client.image.segments[sid]
    return record, idx, cid, client.pipeline.block_path(record.segment_id, idx)


def test_block_hashes_recorded_at_encode_time():
    sim, clouds, client = synced_env()
    for record in client.image.segments.values():
        assert record.locations, "segment must be placed"
        for index in record.locations:
            assert index in record.block_hashes
    # The hashes actually match the stored bytes.
    record, idx, cid, path = some_block(client)
    cloud = next(c for c in clouds if c.cloud_id == cid)
    assert block_hash(cloud.store.get(path)) == record.block_hashes[idx]


def test_block_hashes_survive_metadata_round_trip():
    sim, clouds, client = synced_env(seed=3)
    other = make_device(sim, clouds, "device1", seed=50, config=CONFIG)
    sim.run_process(other.sync())
    for sid, record in client.image.segments.items():
        assert other.image.segments[sid].block_hashes == record.block_hashes


def test_audit_clean_folder_is_clean():
    sim, clouds, client = synced_env(seed=5)
    report = sim.run_process(Scrubber(client).audit(deep=True))
    assert report.clean
    assert report.segments_checked >= 1
    assert report.blocks_checked > 0
    assert report.unreachable == []


def test_audit_flags_missing_block_and_repair_restores_it():
    sim, clouds, client = synced_env(seed=7)
    record, idx, cid, path = some_block(client)
    cloud = next(c for c in clouds if c.cloud_id == cid)
    original = cloud.store.get(path)
    cloud.store.delete(path)
    scrubber = Scrubber(client)
    report = sim.run_process(scrubber.audit())
    assert (record.segment_id, idx, cid) in report.missing
    fixed = sim.run_process(scrubber.repair(report))
    assert (record.segment_id, idx, cid) in fixed.repaired
    assert not fixed.unrecoverable
    assert cloud.store.get(path) == original  # byte-identical re-encode
    assert sim.run_process(scrubber.audit(deep=True)).clean


def test_shallow_audit_flags_size_mismatch():
    sim, clouds, client = synced_env(seed=9)
    record, idx, cid, path = some_block(client, position=1)
    cloud = next(c for c in clouds if c.cloud_id == cid)
    cloud.store.put(path, b"short", mtime=sim.now)
    report = sim.run_process(Scrubber(client).audit())
    assert (record.segment_id, idx, cid) in report.corrupt


def test_deep_audit_flags_content_rot_shallow_misses():
    sim, clouds, client = synced_env(seed=11)
    record, idx, cid, path = some_block(client, position=2)
    cloud = next(c for c in clouds if c.cloud_id == cid)
    cloud.store.corrupt(path)
    scrubber = Scrubber(client)
    assert sim.run_process(scrubber.audit(deep=False)).clean
    deep = sim.run_process(scrubber.audit(deep=True))
    assert (record.segment_id, idx, cid) in deep.corrupt


def test_audit_flags_orphans_and_repair_deletes_them():
    sim, clouds, client = synced_env(seed=13)
    stray = posixpath.join(CONFIG.blocks_dir, "deadbeef.3")
    clouds[1].store.put(stray, b"stray bytes", mtime=sim.now)
    scrubber = Scrubber(client)
    report = sim.run_process(scrubber.audit())
    assert report.orphaned == {"cloud1": [stray]}
    fixed = sim.run_process(scrubber.repair(report))
    assert fixed.orphans_deleted == 1
    assert not clouds[1].store.exists(stray)


def test_unreachable_cloud_is_not_reported_missing():
    sim, clouds, client = synced_env(seed=15)
    clouds[2].set_available(False)
    report = sim.run_process(Scrubber(client).audit())
    assert report.unreachable == ["cloud2"]
    assert not report.missing  # absence of evidence, not evidence
    clouds[2].set_available(True)
    assert sim.run_process(Scrubber(client).audit(deep=True)).clean


def test_unrecoverable_when_fewer_than_k_survivors():
    sim, clouds, client = synced_env(seed=17, size=32 * 1024)
    (record, *_), = [some_block(client)]
    # Destroy every block of the segment everywhere: < k survivors.
    for idx, cid in list(record.locations.items()):
        cloud = next(c for c in clouds if c.cloud_id == cid)
        cloud.store.delete(client.pipeline.block_path(record.segment_id, idx))
    scrubber = Scrubber(client)
    report = sim.run_process(scrubber.audit())
    assert len(report.missing) == len(record.locations)
    fixed = sim.run_process(scrubber.repair(report))
    assert record.segment_id in fixed.unrecoverable
    assert fixed.blocks_repaired == 0


def test_scrub_round_reports_and_to_dict():
    sim, clouds, client = synced_env(seed=19)
    record, idx, cid, path = some_block(client)
    next(c for c in clouds if c.cloud_id == cid).store.delete(path)
    audit, fixed = sim.run_process(
        Scrubber(client).scrub_round(deep=False, repair=True)
    )
    assert not audit.clean and fixed.blocks_repaired == 1
    payload = audit.to_dict()
    assert payload["missing"] == [[record.segment_id, idx, cid]]
    assert payload["clean"] is False
    assert fixed.to_dict()["blocks_repaired"] == 1


def test_repair_does_not_decode_from_corrupt_survivors():
    """Rot k-1 of a segment's blocks: repair must still reconstruct the
    original bytes from verified survivors only."""
    sim, clouds, client = synced_env(seed=21, size=32 * 1024)
    record, *_ = some_block(client)
    placed = sorted(record.locations.items())
    for idx, cid in placed[: record.k - 1]:
        cloud = next(c for c in clouds if c.cloud_id == cid)
        cloud.store.corrupt(client.pipeline.block_path(record.segment_id, idx))
    scrubber = Scrubber(client)
    audit = sim.run_process(scrubber.audit(deep=True))
    assert len(audit.corrupt) == record.k - 1
    fixed = sim.run_process(scrubber.repair(audit))
    assert fixed.blocks_repaired == record.k - 1
    final = sim.run_process(scrubber.audit(deep=True))
    assert final.clean
