"""The metadata slice of the replica-rot matrix.

Every metadata file a device reads from a cloud — the version file, the
base image, the delta log and the device heartbeats — is untrusted.
Each kind is damaged four ways (truncated, one bit flipped, well-formed
JSON of the wrong type, missing) on one replica: the reader must move on
to the next replica and finish as if nothing happened.  Damaged on every
replica, the round fails with ``SyncError`` (a heartbeat's device
becomes unknown) and nothing is applied.  No other exception may
escape.

A *well-typed* inflated counter on one version file (``{"counter":
99999999999}``) is out of reach of any parser: no replica reaches the
polled stamp, so every later round raises ``SyncError``.  That wedge is
open.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cloud.errors import QuotaExceededError, RequestFailedError
from repro.core import UniDriveConfig
from repro.core.client import SyncError
from repro.core.probing import DOWNLOAD
from repro.crypto import decrypt_cbc, encrypt_cbc, synthetic_iv
from repro.workloads import make_fleet

#: Fold thresholds out of reach: the second commit appends a delta.
CONFIG = UniDriveConfig(
    theta=64 * 1024, delta_merge_ratio=1000.0, delta_merge_bytes=10 ** 9,
)
KEY = CONFIG.metadata_key
META = CONFIG.meta_dir


def payload(seed, size=8 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def committed_fleet():
    """device0 commits /one (a base) then /two (a delta): version 2."""
    env = make_fleet(2, config=CONFIG)
    writer = env.devices[0]
    for name, seed in (("/one", 1), ("/two", 2)):
        writer.fs.write_file(name, payload(seed), mtime=env.sim.now)
        env.sim.run_process(writer.sync())
    assert writer.image.version.counter == 2
    return env


def seal(plaintext):
    return encrypt_cbc(KEY, plaintext, synthetic_iv(KEY, plaintext))


def wrong_type(kind, blob):
    """The same document with its version counter as a JSON string."""
    if kind == "base":
        doc = json.loads(decrypt_cbc(KEY, blob))
        doc["version"]["counter"] = str(doc["version"]["counter"])
        return seal(json.dumps(doc, sort_keys=True).encode())
    if kind == "delta":
        ops = [json.loads(line)
               for line in decrypt_cbc(KEY, blob).splitlines()]
        for op in ops:
            if "counter" in op:
                op["counter"] = str(op["counter"])
        return seal("\n".join(json.dumps(op) for op in ops).encode())
    doc = json.loads(blob)
    field = "counter" if kind == "version" else "applied"
    doc[field] = str(doc[field])
    return json.dumps(doc).encode()


def damage(cloud, kind, path, how):
    store = cloud.store
    if how == "missing":
        store.delete(path)
        return
    blob = store.get(path)
    if how == "truncated":
        blob = blob[: len(blob) // 2]
    elif how == "bit-flipped":
        flipped = bytearray(blob)
        flipped[len(blob) // 2] ^= 0x01
        blob = bytes(flipped)
    else:
        blob = wrong_type(kind, blob)
    store.put(path, blob, mtime=0.0)


KINDS = ["version", "base", "delta", "heartbeat"]
HOWS = ["truncated", "bit-flipped", "wrong-type", "missing"]


def heartbeat_path(device):
    return f"{META}/device_{device}"


def synced_heartbeats(env):
    """The reader bootstraps to version 2; one more round each publishes
    the heartbeats those rounds left due (a poll carries them)."""
    writer, reader = env.devices
    for device in (reader, reader, writer):
        env.sim.run_process(device.sync())


def assert_bootstrapped(reader):
    assert reader.image.version.counter == 2
    assert reader.fs.read_file("/one") == payload(1)
    assert reader.fs.read_file("/two") == payload(2)


@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("kind", KINDS)
def test_one_rotted_replica_is_skipped(kind, how):
    env = committed_fleet()
    writer, reader = env.devices
    if kind == "heartbeat":
        synced_heartbeats(env)
        damage(env.clouds[0], kind, heartbeat_path(reader.device), how)
        versions = env.sim.run_process(writer.fleet_applied_versions())
        assert versions == {"device0": 2, "device1": 2}
        assert env.sim.run_process(writer.gc_if_fully_synced()) is True
        return
    damage(env.clouds[0], kind, f"{META}/{kind}", how)
    with obs.isolated(sim=env.sim) as (_tracer, metrics):
        env.sim.run_process(reader.sync())
    assert_bootstrapped(reader)
    if kind == "version":
        assert reader._poll_counters["cloud0"] is None
        return
    # The replica the reader moved past is reported once, with why.
    reason = {"missing": "NotFoundError" if kind == "base" else "stale"}
    assert metrics.counter_value(
        "metadata_skips", cloud="cloud0",
        reason=reason.get(how, "undecodable"),
    ) == 1
    # What it kept is what decoded: the healthy replica's bytes.
    assert reader._held[kind][0] == env.clouds[1].store.get(
        f"{META}/{kind}"
    )


@pytest.mark.parametrize("how", HOWS[:3])
@pytest.mark.parametrize("kind", KINDS)
def test_rot_on_every_replica_fails_the_round_cleanly(kind, how):
    env = committed_fleet()
    writer, reader = env.devices
    if kind == "heartbeat":
        synced_heartbeats(env)
        for cloud in env.clouds:
            damage(cloud, kind, heartbeat_path(reader.device), how)
        versions = env.sim.run_process(writer.fleet_applied_versions())
        assert versions == {"device0": 2, "device1": None}
        assert env.sim.run_process(writer.gc_if_fully_synced()) is False
        return
    for cloud in env.clouds:
        damage(cloud, kind, f"{META}/{kind}", how)
    with pytest.raises(SyncError):
        env.sim.run_process(reader.sync())
    # Nothing was applied (no image, no file), and no rotted bytes are
    # held as decoded.
    assert reader.image.version.counter == 0
    assert not reader.fs.exists("/one") and not reader.fs.exists("/two")
    assert kind not in reader._held


@pytest.mark.parametrize("kind", ["base", "delta"])
def test_missing_on_every_replica_fails_the_round(kind):
    env = committed_fleet()
    reader = env.devices[1]
    for cloud in env.clouds:
        damage(cloud, kind, f"{META}/{kind}", "missing")
    with pytest.raises(SyncError):
        env.sim.run_process(reader.sync())
    assert reader.image.version.counter == 0


@pytest.mark.parametrize("counter", ["7", None, 1.5], ids=["str", "null",
                                                            "float"])
def test_ill_typed_version_counter_on_one_replica(counter):
    """A fresh device bootstraps from the other four replicas.  Before,
    ``"7"`` and ``null`` raised a bare ``TypeError`` out of the poll, and
    ``1.5`` outranked the real stamp so no replica was fresh enough."""
    env = make_fleet(2, config=CONFIG)
    writer, reader = env.devices
    writer.fs.write_file("/one", payload(1), mtime=env.sim.now)
    env.sim.run_process(writer.sync())
    env.clouds[0].store.put(
        f"{META}/version",
        json.dumps({"counter": counter, "device": "x"}).encode(), mtime=0.0,
    )
    report = env.sim.run_process(reader.sync())
    assert report.downloaded_files == ["/one"]
    assert reader.image.version.counter == 1
    assert reader._poll_counters["cloud0"] is None


def test_infinite_heartbeat_is_unknown_not_a_crash():
    """``"applied": Infinity`` on every replica raised ``OverflowError``
    out of ``gc_if_fully_synced``; the device is now unknown, and GC
    waits for it."""
    env = committed_fleet()
    writer, reader = env.devices
    synced_heartbeats(env)
    blob = b'{"device": "device1", "applied": Infinity}'
    for cloud in env.clouds:
        cloud.store.put(heartbeat_path("device1"), blob, mtime=0.0)
    versions = env.sim.run_process(writer.fleet_applied_versions())
    assert versions == {"device0": 2, "device1": None}
    assert env.sim.run_process(writer.gc_if_fully_synced()) is False


# -- a reader that holds the base a delta names -------------------------------


def base_downloads(device):
    """Wrap ``device``'s downloads; the returned list collects the cloud
    id of every base download it starts."""
    started = []
    for conn in device.connections:
        def download(path, *args, _raw=conn.download, _cloud=conn.cloud_id,
                     **kwargs):
            if path == f"{META}/base":
                started.append(_cloud)
            return (yield from _raw(path, *args, **kwargs))
        conn.download = download
    return started


def read_order(env, reader):
    """The clouds in the order ``reader``'s metadata reads try them:
    fastest download estimate first (every replica here is fresh)."""
    ranked = reader.estimator.rank(
        [cloud.cloud_id for cloud in env.clouds], DOWNLOAD
    )
    by_id = {cloud.cloud_id: cloud for cloud in env.clouds}
    return [by_id[cloud_id] for cloud_id in ranked]


def commit(device, sim, name, seed):
    device.fs.write_file(name, payload(seed), mtime=sim.now)
    sim.run_process(device.sync())


def test_a_rotted_base_the_reader_holds_is_not_read():
    """The reader holds base v1; device0's third commit extends it, so
    the reader fetches only the delta of the replica it reads first and
    never meets the garbage on that cloud's base replica."""
    env = committed_fleet()
    writer, reader = env.devices
    env.sim.run_process(reader.sync())
    held = reader._held["base"][0]
    commit(writer, env.sim, "/three", 3)
    first = read_order(env, reader)[0]
    first.store.put(f"{META}/base", b"\x00" * len(held), mtime=0.0)
    started = base_downloads(reader)
    with obs.isolated(sim=env.sim) as (_tracer, metrics):
        env.sim.run_process(reader.sync())
    assert reader.image.version.counter == 3
    assert reader.fs.read_file("/three") == payload(3)
    assert started == []
    assert metrics.counter_value("metadata_skips", cloud=first.cloud_id,
                                 reason="undecodable") == 0
    assert reader._held["base"][0] == held


def test_a_rotted_base_after_a_fold_is_skipped():
    """The reader holds base v1, and a merge folded the folder into base
    v4 since: the marker names a base the reader lacks, so it downloads
    the rotted base of the replica it reads first, skips that cloud as
    undecodable and reads the next one's pair."""
    env = make_fleet(3, config=CONFIG)
    writer, reader, other = env.devices
    for name, seed in (("/one", 1), ("/two", 2)):
        commit(writer, env.sim, name, seed)
    env.sim.run_process(reader.sync())
    env.sim.run_process(other.sync())
    commit(writer, env.sim, "/three", 3)
    commit(other, env.sim, "/four", 4)  # v3 is news: a merge, a new base
    assert other.image.version.counter == 4
    first, second = read_order(env, reader)[:2]
    damage(first, "base", f"{META}/base", "bit-flipped")
    started = base_downloads(reader)
    with obs.isolated(sim=env.sim) as (_tracer, metrics):
        env.sim.run_process(reader.sync())
    assert reader.image.version.counter == 4
    assert reader.fs.read_file("/four") == payload(4)
    assert started == [first.cloud_id, second.cloud_id]
    assert metrics.counter_value("metadata_skips", cloud=first.cloud_id,
                                 reason="undecodable") == 1
    assert reader._held["base"][0] == second.store.get(f"{META}/base")


@pytest.mark.parametrize("counter, skipped", [(1, 0), (0, 1)],
                         ids=["pair-ok", "corrupt-pair"])
def test_a_marker_naming_another_base_downloads_the_base(counter, skipped):
    """The delta of the replica the reader reads first is resealed with
    a marker that names a base the reader does not hold: the reader
    downloads that cloud's base and runs the pair check on it — it
    passes when the marker's counter matches that base, and skips the
    cloud as a corrupt pair when not."""
    env = committed_fleet()
    writer, reader = env.devices
    env.sim.run_process(reader.sync())
    commit(writer, env.sim, "/three", 3)
    first = read_order(env, reader)[0]
    path = f"{META}/delta"
    ops = [json.loads(line) for line in
           decrypt_cbc(KEY, first.store.get(path)).splitlines()]
    assert ops[0]["op"] == "base_version"
    ops[0].update(counter=counter, base="0123456789abcdef")
    first.store.put(
        path, seal("\n".join(json.dumps(op) for op in ops).encode()),
        mtime=0.0,
    )
    started = base_downloads(reader)
    with obs.isolated(sim=env.sim) as (_tracer, metrics):
        env.sim.run_process(reader.sync())
    assert reader.image.version.counter == 3
    assert reader.fs.read_file("/three") == payload(3)
    assert started == [first.cloud_id]
    assert metrics.counter_value("metadata_skips", cloud=first.cloud_id,
                                 reason="corrupt-pair") == skipped


@pytest.mark.parametrize("torn", ["delta", "base"])
def test_a_torn_fold_is_skipped_as_a_corrupt_pair(torn):
    """A fold uploads base ∥ delta, then the version file.  On cloud0
    one of the pair's writes fails for good while the other lands, so
    cloud0 pairs a v4 file with a v3 one, and its version file, written
    last, still says v3.  A fresh reader that cannot poll cloud0 does
    not know that replica is stale, reads it first, and skips it as a
    corrupt pair."""
    env = make_fleet(3, config=CONFIG)
    writer, reader, other = env.devices
    for name, seed in (("/one", 1), ("/two", 2)):
        commit(writer, env.sim, name, seed)
    env.sim.run_process(other.sync())
    commit(writer, env.sim, "/three", 3)
    before = {kind: env.clouds[0].store.get(f"{META}/{kind}")
              for kind in ("base", "delta", "version")}

    def refuse(conn, path, error):
        def request(name, *args, _raw=getattr(conn, error[0]), **kwargs):
            if name == path:
                raise error[1](conn.cloud_id, "refused")
            return (yield from _raw(name, *args, **kwargs))
        setattr(conn, error[0], request)

    refuse(other.connections[0], f"{META}/{torn}",
           ("upload", QuotaExceededError))
    commit(other, env.sim, "/four", 4)  # v3 is news: a merge, a new base
    assert other.image.version.counter == 4
    after = {kind: env.clouds[0].store.get(f"{META}/{kind}")
             for kind in ("base", "delta", "version")}
    assert after[torn] == before[torn] and after["version"] == before["version"]
    kept = "base" if torn == "delta" else "delta"
    assert after[kept] == env.clouds[1].store.get(f"{META}/{kept}")

    refuse(reader.connections[0], f"{META}/version",
           ("download", RequestFailedError))
    with obs.isolated(sim=env.sim) as (_tracer, metrics):
        env.sim.run_process(reader.sync())
    assert reader._poll_counters["cloud0"] is None
    assert metrics.counter_value("metadata_skips", cloud="cloud0",
                                 reason="corrupt-pair") == 1
    assert reader.image.version.counter == 4
    assert reader.fs.read_file("/four") == payload(4)
