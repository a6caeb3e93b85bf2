"""Tests for the UniDrive client: Algorithm 1 end to end."""

import numpy as np
import pytest

from repro.cloud import SimulatedCloud
from repro.core import deltasync, serialization
from repro.core.client import SyncError
from repro.core.config import UniDriveConfig
from repro.workloads import connect, make_fleet

CONFIG = UniDriveConfig(theta=64 * 1024, lock_backoff_max=1.0)
#: Fold thresholds out of reach: commits append to the delta.
DELTA_CONFIG = UniDriveConfig(
    theta=64 * 1024, lock_backoff_max=1.0,
    delta_merge_ratio=1000.0, delta_merge_bytes=10 ** 9,
)


def sync(fleet, device):
    return fleet.sim.run_process(fleet.devices[device].sync())


def write(fleet, device, path, content):
    fleet.devices[device].fs.write_file(path, content, mtime=fleet.sim.now)


def content_bytes(seed, size=100 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def test_single_device_upload_then_noop():
    env = make_fleet(config=CONFIG)
    write(env, 0, "/doc.txt", b"hello unidrive")
    report = sync(env, 0)
    assert report.uploaded_files == ["/doc.txt"]
    assert report.committed_version == 1
    second = sync(env, 0)
    assert not second.changed_anything


def test_two_devices_basic_sync():
    env = make_fleet(2, config=CONFIG)
    payload = content_bytes(1)
    write(env, 0, "/shared.bin", payload)
    sync(env, 0)
    report = sync(env, 1)
    assert report.downloaded_files == ["/shared.bin"]
    assert env.devices[1].fs.read_file("/shared.bin") == payload


def test_edit_propagates():
    env = make_fleet(2, config=CONFIG)
    write(env, 0, "/f", content_bytes(2))
    sync(env, 0)
    sync(env, 1)
    updated = content_bytes(3)
    write(env, 1, "/f", updated)
    sync(env, 1)
    sync(env, 0)
    assert env.devices[0].fs.read_file("/f") == updated


def test_delete_propagates():
    env = make_fleet(2, config=CONFIG)
    write(env, 0, "/gone.txt", b"data")
    sync(env, 0)
    sync(env, 1)
    env.devices[0].fs.delete_file("/gone.txt")
    sync(env, 0)
    report = sync(env, 1)
    assert "/gone.txt" in report.deleted_files
    assert not env.devices[1].fs.exists("/gone.txt")


def test_many_files_and_folders():
    env = make_fleet(2, config=CONFIG)
    files = {f"/dir{i}/f{j}.bin": content_bytes(10 * i + j, size=20 * 1024)
             for i in range(3) for j in range(3)}
    for path, data in files.items():
        write(env, 0, path, data)
    sync(env, 0)
    sync(env, 1)
    for path, data in files.items():
        assert env.devices[1].fs.read_file(path) == data


def test_version_counter_monotonic():
    env = make_fleet(2, config=CONFIG)
    write(env, 0, "/a", b"1")
    r1 = sync(env, 0)
    sync(env, 1)
    write(env, 1, "/b", b"2")
    r2 = sync(env, 1)
    assert r2.committed_version > r1.committed_version


def test_conflict_detection_and_retention():
    env = make_fleet(2, config=CONFIG)
    base = content_bytes(4)
    write(env, 0, "/c.txt", base)
    sync(env, 0)
    sync(env, 1)
    # Divergent edits on both devices before either syncs.
    mine = content_bytes(5)
    theirs = content_bytes(6)
    write(env, 0, "/c.txt", theirs)
    write(env, 1, "/c.txt", mine)
    sync(env, 0)  # device0 commits first -> becomes the cloud version
    report = sync(env, 1)  # device1 discovers the conflict
    assert report.conflicts == ["/c.txt"]
    # The cloud (device0) version wins at the original path...
    fs1 = env.devices[1].fs
    assert fs1.read_file("/c.txt") == theirs
    # ...and the local edit is preserved in a conflict copy.
    copy = "/c.txt.conflict-device1"
    assert fs1.read_file(copy) == mine
    # Metadata retains the losing snapshot too.
    entry = env.devices[1].image.files["/c.txt"]
    assert len(entry.conflicts) == 1


def test_conflict_copy_syncs_back():
    env = make_fleet(2, config=CONFIG)
    write(env, 0, "/c", b"base")
    sync(env, 0)
    sync(env, 1)
    write(env, 0, "/c", b"zero-edit")
    write(env, 1, "/c", b"one-edit")
    sync(env, 0)
    sync(env, 1)  # creates conflict copy on device1
    sync(env, 1)  # conflict copy syncs as a normal new file
    report = sync(env, 0)
    assert "/c.conflict-device1" in report.downloaded_files
    assert env.devices[0].fs.read_file("/c.conflict-device1") == b"one-edit"


def test_identical_concurrent_edits_no_conflict():
    env = make_fleet(2, config=CONFIG)
    write(env, 0, "/same", b"base")
    sync(env, 0)
    sync(env, 1)
    write(env, 0, "/same", b"identical-change")
    write(env, 1, "/same", b"identical-change")
    sync(env, 0)
    report = sync(env, 1)
    assert report.conflicts == []


def test_deduplication_suppresses_reupload():
    env = make_fleet(config=CONFIG)
    payload = content_bytes(7)
    write(env, 0, "/one.bin", payload)
    sync(env, 0)
    uploaded_before = env.devices[0].traffic_totals()["payload_up"]
    write(env, 0, "/two.bin", payload)  # identical content
    report = sync(env, 0)
    assert report.uploaded_files == ["/two.bin"]
    uploaded_after = env.devices[0].traffic_totals()["payload_up"]
    # Only metadata moved; no block re-upload for identical content.
    assert uploaded_after - uploaded_before < 20 * 1024


def test_metadata_survives_minority_outage():
    env = make_fleet(2, config=CONFIG)
    env.clouds[0].set_available(False)
    env.clouds[4].set_available(False)
    write(env, 0, "/resilient", content_bytes(8))
    sync(env, 0)
    report = sync(env, 1)
    assert report.downloaded_files == ["/resilient"]


def test_commit_fails_without_quorum():
    env = make_fleet(config=CONFIG)
    for cloud in env.clouds[:3]:
        cloud.set_available(False)
    write(env, 0, "/f", b"x")
    from repro.core.lock import LockTimeout

    with pytest.raises((SyncError, LockTimeout)):
        sync(env, 0)


def test_blocks_before_metadata():
    """A crashed commit (no metadata) must leave no visible file."""
    env = make_fleet(2, config=CONFIG)
    write(env, 0, "/early", b"payload")
    sync(env, 0)
    # device1 sees it only through metadata; wipe metadata dir on all
    # clouds to prove the blocks alone reveal nothing.
    for cloud in env.clouds:
        cloud.store.delete(CONFIG.meta_dir)
    report = sync(env, 1)
    assert report.downloaded_files == []


def test_refcount_gc_removes_blocks():
    env = make_fleet(config=CONFIG)
    write(env, 0, "/victim", content_bytes(9))
    sync(env, 0)
    blocks_before = sum(
        len(c.store.list_folder(CONFIG.blocks_dir)) for c in env.clouds
    )
    assert blocks_before > 0
    env.devices[0].fs.delete_file("/victim")
    sync(env, 0)
    env.sim.run()  # drain the fire-and-forget GC deletions
    blocks_after = sum(
        len(c.store.list_folder(CONFIG.blocks_dir)) for c in env.clouds
    )
    assert blocks_after == 0


def test_gc_over_provisioned_keeps_fair_share():
    env = make_fleet(config=CONFIG)
    write(env, 0, "/f", content_bytes(11, size=200 * 1024))
    sync(env, 0)
    client = env.devices[0]
    env.sim.run_process(client.gc_over_provisioned())
    for record in client.image.segments.values():
        for cloud_id in record.clouds_holding():
            assert len(record.blocks_on(cloud_id)) <= 1  # fair share
    # The file must still be reconstructible.
    payload = client.fs.read_file("/f")
    client.fs.write_file("/probe", b"force-roundtrip", mtime=env.sim.now)
    sync(env, 0)
    env2_fs = env.devices[0].fs
    assert env2_fs.read_file("/f") == payload


def test_remove_cloud_rebalances_and_survives():
    env = make_fleet(2, config=CONFIG)
    payload = content_bytes(12, size=150 * 1024)
    write(env, 0, "/keep", payload)
    sync(env, 0)
    client = env.devices[0]
    env.sim.run_process(client.remove_cloud("cloud4"))
    assert len(client.connections) == 4
    for record in client.image.segments.values():
        assert "cloud4" not in record.locations.values()
    # Data still recoverable from the remaining clouds via a fresh device.
    report = sync(env, 1)
    assert env.devices[1].fs.read_file("/keep") == payload


def test_add_cloud_takes_fair_share():
    env = make_fleet(config=CONFIG)
    payload = content_bytes(13, size=150 * 1024)
    write(env, 0, "/f", payload)
    sync(env, 0)
    client = env.devices[0]
    new_cloud = SimulatedCloud(env.sim, "cloud5")
    (conn,) = connect(env.sim, [new_cloud], seed=99)
    env.sim.run_process(client.add_cloud(conn))
    assert len(client.connections) == 6
    for record in client.image.segments.values():
        assert record.blocks_on("cloud5")  # adopted blocks exist
        for index in record.blocks_on("cloud5"):
            path = client.pipeline.block_path(record.segment_id, index)
            assert new_cloud.store.exists(path)


def test_periodic_sync_loop_propagates():
    env = make_fleet(2, config=CONFIG)
    payload = content_bytes(14)

    env.sim.process(env.devices[1].run_forever())

    def writer():
        yield env.sim.timeout(5.0)
        write(env, 0, "/late.bin", payload)
        yield from env.devices[0].sync()

    env.sim.process(writer())
    env.sim.run(until=200.0)
    assert env.devices[1].fs.read_file("/late.bin") == payload


def test_sync_report_fields():
    env = make_fleet(config=CONFIG)
    write(env, 0, "/r", b"data")
    report = sync(env, 0)
    assert report.device == "device0"
    assert report.duration >= 0
    assert report.changed_anything


# -- per-device decoded-metadata cache ------------------------------------------


def count_decrypts(monkeypatch, env):
    """``paid(i)``: sync device ``i`` and return how many (base, delta)
    blobs went through the decrypt_cbc bindings the tracer also wraps."""
    calls = {"base": 0, "delta": 0}
    for name, module in (("base", serialization), ("delta", deltasync)):
        def counting(key, blob, real=module.decrypt_cbc, name=name):
            calls[name] += 1
            return real(key, blob)

        monkeypatch.setattr(module, "decrypt_cbc", counting)

    def paid(device):
        before = dict(calls)
        sync(env, device)
        return calls["base"] - before["base"], calls["delta"] - before["delta"]

    return paid


def test_each_device_decrypts_for_itself_and_only_news(monkeypatch):
    env = make_fleet(3, config=DELTA_CONFIG)
    paid = count_decrypts(monkeypatch, env)
    write(env, 0, "/a", content_bytes(20))
    assert paid(0) == (0, 0)  # nothing on the clouds yet
    write(env, 0, "/b", content_bytes(21))
    assert paid(0) == (0, 0)  # extends the delta it sealed itself
    # Devices 1 and 2 read the same two blobs in the same process: each
    # pays for both, whatever the other has already seen.
    assert paid(1) == (1, 1)
    assert paid(2) == (1, 1)
    write(env, 0, "/c", content_bytes(22))
    assert paid(0) == (0, 0)
    assert paid(1) == (0, 1)  # same base bytes as last time: held
    assert paid(1) == (0, 0)  # no news, no fetch
    write(env, 1, "/d", content_bytes(23))
    assert paid(1) == (0, 0)  # the delta it fetched a moment ago
    assert paid(0) == (0, 1)  # its own base back, device1's delta
    assert paid(2) == (0, 1)
    for client in env.devices:
        for name, seed in (("/a", 20), ("/b", 21), ("/c", 22), ("/d", 23)):
            assert client.fs.read_file(name) == content_bytes(seed)
    held = [client._held for client in env.devices]
    assert held[0] is not held[1] and held[1] is not held[2]
    # Keyed by content: all three end up holding the clouds' bytes.
    for name in ("base", "delta"):
        on_cloud = env.clouds[0].store.get(f"/unidrive/meta/{name}")
        assert [h[name][0] for h in held] == [on_cloud] * 3


def test_fold_is_decrypted_once_per_reader(monkeypatch):
    env = make_fleet(2, config=CONFIG)  # tiny bases fold every commit
    paid = count_decrypts(monkeypatch, env)
    write(env, 0, "/a", content_bytes(24))
    assert paid(0) == (0, 0)
    assert paid(1) == (1, 1)
    write(env, 0, "/a", content_bytes(25))
    assert paid(0) == (0, 0)  # folded: publishes base + marker delta
    assert paid(1) == (1, 1)  # both blobs are new bytes
    assert env.devices[1].fs.read_file("/a") == content_bytes(25)


def test_held_metadata_is_handed_out_as_copies():
    env = make_fleet(2, config=DELTA_CONFIG)
    write(env, 0, "/a", content_bytes(26))
    sync(env, 0)
    sync(env, 1)
    reader = env.devices[1]
    base_blob, _ = reader._held["base"]
    delta_blob, _ = reader._held["delta"]
    image = reader._decode("base", base_blob)
    image.files.clear()
    image.segments.clear()
    assert reader._decode("base", base_blob).files
    log = reader._decode("delta", delta_blob)
    log.append({"op": "delete_file", "path": "/a"})
    assert len(reader._decode("delta", delta_blob)) == len(log) - 1
    # The image the device lives on is no alias of the held one either.
    assert reader.image is not reader._held["base"][1]
    writer = env.devices[0]
    assert writer.image is not writer._held["base"][1]
    writer.image.files.clear()
    assert writer._held["base"][1].files


def test_version_poll_ignores_unparseable_version_files():
    env = make_fleet(2, config=CONFIG)
    write(env, 0, "/a", content_bytes(27))
    sync(env, 0)
    garbage = [b"\xff\xfe", b"[1, 2]", b'{"counter": 1}', b"7"]
    for cloud, blob in zip(env.clouds, garbage):
        cloud.store.put("/unidrive/meta/version", blob, mtime=0.0)
    reader = env.devices[1]
    stamp = env.sim.run_process(reader._check_cloud_update())
    assert stamp.counter == 1
    assert reader._poll_counters == {
        "cloud0": None, "cloud1": None, "cloud2": None, "cloud3": None,
        "cloud4": 1,
    }



def test_an_edit_made_while_a_round_downloads_is_not_swallowed():
    """The reader's user writes /mine while the reader's round is
    downloading /a.  The round takes in only the writes it made itself;
    the edit stays a change, and the next round commits it."""
    env = make_fleet(2, config=CONFIG)
    writer, reader = env.devices
    write(env, 0, "/a", content_bytes(1))
    sync(env, 0)
    conn = reader.connections[0]

    def download(path, *args, _raw=conn.download, **kwargs):
        if path.startswith(CONFIG.blocks_dir) and not reader.fs.exists("/mine"):
            write(env, 1, "/mine", content_bytes(2))
        return (yield from _raw(path, *args, **kwargs))

    conn.download = download
    report = sync(env, 1)
    assert report.downloaded_files == ["/a"] and reader.fs.exists("/mine")
    assert sync(env, 1).uploaded_files == ["/mine"]
    sync(env, 0)
    assert writer.fs.read_file("/mine") == content_bytes(2)
