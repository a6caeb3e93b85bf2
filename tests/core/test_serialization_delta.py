"""Tests for metadata serialization, encryption, and Delta-sync."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cloud import SimulatedCloud
from repro.core.config import UniDriveConfig
from repro.core.deltasync import (
    DeltaLog,
    base_name,
    op_add_segment,
    op_base_version,
    op_delete_file,
    op_resolve_conflict,
    op_set_version,
    op_upsert_file,
    should_merge,
)
from repro.core.metadata import (
    FileSnapshot,
    MetadataError,
    SegmentRecord,
    SyncFolderImage,
    VersionStamp,
)
from repro.core.serialization import (
    canonical_json,
    deserialize_heartbeat,
    deserialize_image,
    deserialize_version,
    serialize_heartbeat,
    serialize_image,
    serialize_version,
)
from repro.crypto import encrypt_cbc, synthetic_iv
from repro.simkernel import Simulator
from repro.workloads import make_device

KEY = b"UniDrive"


def build_image():
    image = SyncFolderImage("device-A")
    image.version = VersionStamp(3, "device-A")
    image.add_segment(SegmentRecord("s1", size=1000, n=10, k=3))
    image.set_block_location("s1", 0, "dropbox")
    image.set_block_location("s1", 4, "gdrive")
    image.upsert_file(
        FileSnapshot("/docs/a.txt", 1.5, 1000, ["s1"], "device-A")
    )
    return image


def test_image_roundtrip_encrypted():
    image = build_image()
    blob = serialize_image(image, KEY)
    restored = deserialize_image(blob, KEY)
    assert restored.to_dict() == image.to_dict()


def test_image_ciphertext_is_opaque():
    image = build_image()
    blob = serialize_image(image, KEY)
    assert b"docs" not in blob
    assert b"dropbox" not in blob


def test_image_serialization_deterministic():
    a = serialize_image(build_image(), KEY)
    b = serialize_image(build_image(), KEY)
    assert a == b


def test_image_wrong_key_fails():
    from repro.crypto import PaddingError

    blob = serialize_image(build_image(), KEY)
    try:
        restored = deserialize_image(blob, b"badkey!!")
    except (PaddingError, ValueError, UnicodeDecodeError):
        return
    assert restored.to_dict() != build_image().to_dict()


def test_version_file_roundtrip():
    stamp = VersionStamp(42, "device-B")
    blob = serialize_version(stamp)
    assert len(blob) < 100  # must stay tiny: polled every tau seconds
    assert deserialize_version(blob).to_dict() == stamp.to_dict()


def test_delta_log_replays_every_op():
    base = SyncFolderImage("d")
    log = DeltaLog()
    log.append(op_base_version(0))
    log.append(op_add_segment(
        SegmentRecord("s1", 100, 10, 3, {2: "onedrive"})))
    log.append(op_upsert_file(FileSnapshot("/f", 1.0, 100, ["s1"], "d")))
    log.append(op_upsert_file(FileSnapshot("/g", 1.0, 100, ["s1"], "d")))
    log.append(op_delete_file("/g"))
    log.append(op_resolve_conflict("/f"))
    log.append(op_set_version(5, "d"))
    log.apply_to(base)
    assert base.files["/f"].current.size == 100
    assert "/g" not in base.files
    assert base.segments["s1"].locations == {2: "onedrive"}
    assert base.segments["s1"].refcount == 1
    assert base.version.counter == 5


def test_delta_log_delete_and_conflict_ops():
    image = SyncFolderImage("d")
    image.add_segment(SegmentRecord("s1", 10, 5, 2))
    image.add_segment(SegmentRecord("s2", 10, 5, 2))
    image.upsert_file(FileSnapshot("/f", 1.0, 10, ["s1"], "d"))
    image.add_conflict("/f", FileSnapshot("/f", 2.0, 10, ["s2"], "e"))
    DeltaLog([op_resolve_conflict("/f", 0)]).apply_to(image)
    assert image.files["/f"].current.segment_ids == ["s2"]
    assert image.files["/f"].conflicts == []
    follow = DeltaLog([op_delete_file("/f")])
    follow.apply_to(image)
    assert "/f" not in image.files
    assert image.segments["s1"].refcount == image.segments["s2"].refcount == 0


def test_delta_log_unknown_op_rejected():
    with pytest.raises(ValueError):
        DeltaLog([{"op": "explode"}]).apply_to(SyncFolderImage())


def test_delta_log_wire_roundtrip():
    log = DeltaLog()
    log.append(op_set_version(9, "dev"))
    log.append(op_delete_file("/gone"))
    blob = log.to_bytes(KEY)
    restored = DeltaLog.from_bytes(blob, KEY)
    assert restored.ops == log.ops


def test_marker_names_the_sealed_base():
    """The name is the base blob's synthetic IV, the same for the same
    image however often it is sealed, and it survives the wire."""
    blob = serialize_image(build_image(), KEY)
    name = base_name(blob)
    assert name == synthetic_iv(KEY, canonical_json(
        build_image().to_dict())).hex()
    assert name == base_name(serialize_image(build_image(), KEY))
    log = DeltaLog([op_base_version(3, name), op_set_version(4, "d")])
    restored = DeltaLog.from_bytes(log.to_bytes(KEY), KEY)
    assert (restored.base_marker(), restored.named_base()) == (3, name)
    assert DeltaLog([op_base_version(3)]).named_base() is None


def test_delta_log_empty_roundtrip():
    blob = DeltaLog().to_bytes(KEY)
    assert DeltaLog.from_bytes(blob, KEY).ops == []


def test_delta_equivalent_to_direct_mutation():
    """Applying a delta == performing the same calls directly."""
    direct = SyncFolderImage("d")
    direct.add_segment(SegmentRecord("s1", 50, 10, 3, {1: "baidu"}))
    direct.upsert_file(FileSnapshot("/x", 1.0, 50, ["s1"], "d"))
    direct.delete_file("/x")

    replayed = SyncFolderImage("d")
    log = DeltaLog([
        op_add_segment(SegmentRecord("s1", 50, 10, 3, {1: "baidu"})),
        op_upsert_file(FileSnapshot("/x", 1.0, 50, ["s1"], "d")),
        op_delete_file("/x"),
    ])
    log.apply_to(replayed)
    assert replayed.to_dict() == direct.to_dict()


def test_should_merge_thresholds():
    config = UniDriveConfig()  # ratio 0.25, cap 10 KiB
    assert not should_merge(base_size=100_000, delta_size=5_000, config=config)
    assert should_merge(base_size=100_000, delta_size=10_240, config=config)
    # Small base: the ratio bound dominates.
    assert should_merge(base_size=4_000, delta_size=1_000, config=config)
    assert not should_merge(base_size=4_000, delta_size=999, config=config)


# -- sealing -----------------------------------------------------------------

_paths = st.text(min_size=1, max_size=40).map(lambda t: "/" + t)
_small = st.integers(0, 10 ** 6)
_ops = st.one_of(
    st.builds(op_delete_file, _paths),
    st.builds(op_set_version, _small, st.text(max_size=8)),
    st.builds(op_resolve_conflict, _paths, st.none() | st.integers(0, 3)),
    st.builds(
        lambda path, size, ids, dev: op_upsert_file(
            FileSnapshot(path, 1.5, size, ids, dev)),
        _paths, _small, st.lists(st.text(max_size=12), max_size=4),
        st.text(max_size=8),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ops, max_size=12), st.lists(_ops, max_size=6),
       st.lists(_ops, max_size=6), st.booleans())
def test_append_seal_equals_seal_from_scratch(head, more, again, marker):
    """from_bytes -> extend -> to_bytes is byte-for-byte the blob that
    sealing the same ops from scratch gives, however often it repeats,
    and a reader with no memory of the log decrypts it."""
    if marker:
        head = [op_base_version(7)] + head
    log = DeltaLog.from_bytes(DeltaLog(head).to_bytes(KEY), KEY)
    for extra in (more, again):
        log.extend(extra)
        head = head + extra
        blob = log.to_bytes(KEY)
        assert blob == DeltaLog(head).to_bytes(KEY)
        assert DeltaLog.from_bytes(blob, KEY).ops == head
        assert len(blob) == log.sealed_size()


def test_seal_under_another_key_shares_nothing():
    log = DeltaLog.from_bytes(
        DeltaLog([op_set_version(1, "d")]).to_bytes(KEY), KEY
    )
    log.append(op_delete_file("/x"))
    other = b"otherkey"
    assert log.to_bytes(other) == DeltaLog(log.ops).to_bytes(other)


def test_sealed_size_is_the_blob_length():
    for n in range(0, 40):
        log = DeltaLog([op_delete_file("/" + "p" * n)])
        assert log.sealed_size() == len(log.to_bytes(KEY))
    assert DeltaLog().sealed_size() == len(DeltaLog().to_bytes(KEY)) == 16


# -- untrusted bytes: one typed error -----------------------------------------


def sealed(plaintext: bytes) -> bytes:
    return encrypt_cbc(KEY, plaintext, synthetic_iv(KEY, plaintext))


UNDECODABLE = {
    "short": b"12345678",
    "misaligned": sealed(b"{}") + b"x",
    "bad padding": sealed(b"{}")[:-1] + b"\x00",
    "bad utf-8": sealed(b"\xff\xfe{}"),
    "bad json": sealed(b'{"op": '),
    "json scalar": sealed(b"42"),
    "json list": sealed(b"[1, 2]"),
    "nested too deep": sealed(b"[" * 100_000),
}


@pytest.mark.parametrize("blob", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_undecodable_blobs_raise_metadata_error(blob):
    with pytest.raises(MetadataError):
        deserialize_image(blob, KEY)
    with pytest.raises(MetadataError):
        DeltaLog.from_bytes(blob, KEY)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("version"),
    lambda d: d.update(version=[1, 2]),
    lambda d: d.update(files=["/a"]),
    lambda d: d["files"]["/docs/a.txt"].pop("current"),
    lambda d: d["segments"]["s1"].update(locations={"x": "c"}),
    lambda d: d["segments"].update(s1=None),
    lambda d: d["version"].update(counter="3"),
    lambda d: d["version"].update(counter=3.5),
    lambda d: d["version"].update(device=None),
    lambda d: d["segments"]["s1"].update(debt=[float("inf")]),
])
def test_malformed_image_dict_raises_metadata_error(mutate):
    document = build_image().to_dict()
    mutate(document)
    with pytest.raises(MetadataError):
        deserialize_image(sealed(canonical_json(document)), KEY)


@pytest.mark.parametrize("line", [
    b'{"nop":"x"}',
    b'{"op":7}',
    b'"upsert_file"',
    b'{"op":"base_version"}',
    b'{"op":"set_version","counter":"many","device":"d"}',
    b'{"op":"set_version","counter":"2","device":"d"}',
    b'{"op":"set_version","counter":2.5,"device":"d"}',
    b'{"op":"set_version","counter":2,"device":null}',
    b'{"op":"base_version","counter":Infinity}',
    b'{"op":"base_version","counter":-1}',
    # A base name is 16 lowercase hex digits, present or absent.
    b'{"op":"base_version","counter":1,"base":"0123456789ABCDEF"}',
    b'{"op":"base_version","counter":1,"base":"0123456789abcde"}',
    b'{"op":"base_version","counter":1,"base":"0123456789abcdef0"}',
    b'{"op":"base_version","counter":1,"base":"0123456789abcdeg"}',
    b'{"op":"base_version","counter":1,"base":"0123456789abcdef\\n"}',
    b'{"op":"base_version","counter":1,"base":81985529216486895}',
    b'{"op":"base_version","counter":1,"base":null}',
    b'{"op":"base_version","counter":1,"base":["0123456789abcdef"]}',
    b'{"op":"txn_round","counter":null}',
    # Record kinds no client writes, well-formed otherwise: a merge
    # publishes a full base, and a round's version stamp is its own
    # ``set_version`` record.
    b'{"counter":1,"device":"d","op":"txn_round","ops":[],"round_id":"d:1"}',
    b'{"cloud_id":"c","index":0,"op":"set_location","segment_id":"s"}',
    b'{"op":"drop_segment","segment_id":"s"}',
    b'{"op":"add_conflict","path":"/a","snapshot":{}}',
])
def test_malformed_delta_record_raises_metadata_error(line):
    with pytest.raises(MetadataError):
        DeltaLog.from_bytes(sealed(b'{"op":"delete_file","path":"/a"}\n'
                                   + line), KEY)


#: Plain JSON (version files, heartbeats) that must not be read: the
#: documents carry both a ``counter`` and an ``applied`` field so each
#: one is ill-typed for both parsers.
PLAIN_UNDECODABLE = {
    "bad utf-8": b"\xff\xfe",
    "truncated": b'{"counter": 1, "dev',
    "null": b"null",
    "list": b"[1, 2]",
    "nested too deep": b"[" * 100_000,
    "missing fields": b"{}",
    **{
        f"{name} counter": (
            b'{"counter": %s, "applied": %s, "device": "d"}' % (v, v)
        )
        for name, v in (("string", b'"7"'), ("float", b"1.5"),
                        ("bool", b"true"), ("null", b"null"),
                        ("negative", b"-1"), ("infinite", b"Infinity"),
                        ("NaN", b"NaN"))
    },
    "numeric device": b'{"counter": 1, "applied": 1, "device": 7}',
}


@pytest.mark.parametrize("blob", PLAIN_UNDECODABLE.values(),
                         ids=PLAIN_UNDECODABLE.keys())
def test_plain_metadata_parsers_raise_metadata_error(blob):
    with pytest.raises(MetadataError) as caught:
        deserialize_version(blob)
    assert caught.value.reason == "undecodable"
    with pytest.raises(MetadataError):
        deserialize_heartbeat(blob, "d")


def test_heartbeat_roundtrip_names_its_device():
    blob = serialize_heartbeat("device-A", 12)
    assert blob == b'{"device": "device-A", "applied": 12}'
    assert deserialize_heartbeat(blob, "device-A") == 12
    # Another device's heartbeat cannot stand in for this one's.
    with pytest.raises(MetadataError):
        deserialize_heartbeat(blob, "device-B")


def test_unreplayable_record_raises_metadata_error():
    log = DeltaLog.from_bytes(sealed(b'{"op":"upsert_file"}'), KEY)
    with pytest.raises(MetadataError):
        log.apply_to(SyncFolderImage())


def test_metadata_error_is_a_value_error_with_its_cause():
    with pytest.raises(ValueError) as caught:
        deserialize_image(sealed(b"\xff"), KEY)
    assert isinstance(caught.value, MetadataError)
    assert isinstance(caught.value.__cause__, UnicodeDecodeError)


def test_delta_iv_covers_the_whole_log():
    """Two logs that share their first record no longer share an IV: the
    blob does not reveal that one log extends the other."""
    head = [op_base_version(3), op_delete_file("/a")]
    short, grown = DeltaLog(head), DeltaLog(head + [op_set_version(4, "d")])
    assert short.to_bytes(KEY)[:8] == synthetic_iv(KEY, short._encode())
    assert short.to_bytes(KEY)[:8] != grown.to_bytes(KEY)[:8]
    assert grown.to_bytes(KEY)[8:24] != short.to_bytes(KEY)[8:24]


def flipped(blob: bytes):
    """``blob`` with each one of its bits flipped in turn."""
    for bit in range(8 * len(blob)):
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 0x80 >> (bit % 8)
        yield bit, bytes(damaged)


def test_any_single_bit_flip_raises_metadata_error():
    """Every bit of a sealed base and a sealed delta — IV, body and
    padding — is covered: one flip anywhere is a typed error, never a
    quietly different image or log."""
    base = serialize_image(build_image(), KEY)
    delta = DeltaLog([
        op_base_version(3),
        op_upsert_file(FileSnapshot("/docs/b.txt", 2.5, 10, ["s1"], "A")),
        op_set_version(4, "device-A"),
    ]).to_bytes(KEY)
    for blob, parse in ((base, deserialize_image),
                        (delta, DeltaLog.from_bytes)):
        for bit, damaged in flipped(blob):
            try:
                parse(damaged, KEY)
            except MetadataError:
                continue
            pytest.fail(f"bit {bit} of {len(blob)} bytes went unnoticed")


#: ``build_image()`` under ``KEY`` as the CBC-era format (wire v1:
#: ``IV = sha1(plaintext)[:8]``, DES-CBC) sealed it.
CBC_ERA_BASE = bytes.fromhex(
    "8f786719b717b01d1910cf6e3c2cf491187c31fe3a06920932c99ccbb664eb9e"
    "6e3c34fd2cb93bdad99df4529756a32f42cac2a7b763a5cfea5fa5f419f70ffa"
    "bfba4f621ed290102229660aaa49e01cc48282faa906f7bb47dc3b1a3871d1ba"
    "1552bbfe98d17aaf64eb03d298b4fa70d8c89faaa188faf6c73ee10297aa7363"
    "a40d1043bb57dc2fb8d9ccd2a25f002f4ce0caa14c9f1650775a5dc75fc238a7"
    "47b7e7f6ff0203a49155dfd9c78bac6e252e6d205dd27f785118db0cc2b5bb19"
    "4b9086789b7e974132cb06d335d2e8b044f9b32889244063801b5bf4dcbc992e"
    "f4e112fb4a5ab33ebb5fa93bdc5f0a261c38672155a14cfef48c962c689214d3"
    "557ddb02d5d12d1a68cc7a4a699e22bdc62bc5790243a944181d95a910537deb"
    "9d1dca1d4558956c5f0aeaed8dba841872d85725b006258acef702acbf4a23f3"
    "0d9bd4d44019a4b393cfb1b0ea8a3e2c"
)


def test_cbc_era_base_raises_metadata_error():
    """No dual reader: a v1 blob is undecodable bytes like any other."""
    assert len(CBC_ERA_BASE) == len(serialize_image(build_image(), KEY))
    with pytest.raises(MetadataError):
        deserialize_image(CBC_ERA_BASE, KEY)


def test_client_skips_a_cbc_era_replica():
    """A cloud still holding a v1 base is a bad replica: the reader
    skips it as ``undecodable`` and reads the next cloud."""
    config = UniDriveConfig(theta=64 * 1024, metadata_key=KEY)
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=1, config=config)
    writer.fs.write_file("/one", b"v2 metadata" * 100, mtime=sim.now)
    sim.run_process(writer.sync())
    clouds[0].store.put("/unidrive/meta/base", CBC_ERA_BASE, mtime=0.0)
    reader = make_device(sim, clouds, "reader", seed=10, config=config)
    with obs.isolated(sim=sim) as (_tracer, metrics):
        report = sim.run_process(reader.sync())
        skips = metrics.counter_value(
            "metadata_skips", cloud="c0", reason="undecodable"
        )
    assert skips == 1
    assert report.downloaded_files == ["/one"]
    assert reader.fs.read_file("/one") == b"v2 metadata" * 100
