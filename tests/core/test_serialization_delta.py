"""Tests for metadata serialization, encryption, and Delta-sync."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import deltasync
from repro.core.config import UniDriveConfig
from repro.core.deltasync import (
    DeltaLog,
    op_add_conflict,
    op_add_segment,
    op_base_version,
    op_delete_file,
    op_drop_segment,
    op_set_location,
    op_set_version,
    op_txn_round,
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
    deserialize_image,
    deserialize_version,
    serialize_image,
    serialize_version,
)
from repro.crypto import encrypt_cbc

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
    log.append(op_add_segment(SegmentRecord("s1", 100, 10, 3)))
    log.append(op_upsert_file(FileSnapshot("/f", 1.0, 100, ["s1"], "d")))
    log.append(op_set_location("s1", 2, "onedrive"))
    log.append(op_set_version(5, "d"))
    log.apply_to(base)
    assert base.files["/f"].current.size == 100
    assert base.segments["s1"].locations == {2: "onedrive"}
    assert base.version.counter == 5


def test_delta_log_delete_and_conflict_ops():
    image = SyncFolderImage("d")
    log = DeltaLog()
    log.append(op_add_segment(SegmentRecord("s1", 10, 5, 2)))
    log.append(op_add_segment(SegmentRecord("s2", 10, 5, 2)))
    log.append(op_upsert_file(FileSnapshot("/f", 1.0, 10, ["s1"], "d")))
    log.append(op_add_conflict("/f", FileSnapshot("/f", 2.0, 10, ["s2"], "e")))
    log.apply_to(image)
    assert len(image.files["/f"].conflicts) == 1
    follow = DeltaLog([op_delete_file("/f"), op_drop_segment("s1")])
    follow.apply_to(image)
    assert "/f" not in image.files
    assert "s1" not in image.segments


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


def test_delta_log_empty_roundtrip():
    blob = DeltaLog().to_bytes(KEY)
    assert DeltaLog.from_bytes(blob, KEY).ops == []


def test_delta_equivalent_to_direct_mutation():
    """Applying a delta == performing the same calls directly."""
    direct = SyncFolderImage("d")
    direct.add_segment(SegmentRecord("s1", 50, 10, 3))
    direct.upsert_file(FileSnapshot("/x", 1.0, 50, ["s1"], "d"))
    direct.set_block_location("s1", 1, "baidu")

    replayed = SyncFolderImage("d")
    log = DeltaLog([
        op_add_segment(SegmentRecord("s1", 50, 10, 3)),
        op_upsert_file(FileSnapshot("/x", 1.0, 50, ["s1"], "d")),
        op_set_location("s1", 1, "baidu"),
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


# -- prefix-stable sealing ----------------------------------------------------

_paths = st.text(min_size=1, max_size=40).map(lambda t: "/" + t)
_small = st.integers(0, 10 ** 6)
_ops = st.one_of(
    st.builds(op_delete_file, _paths),
    st.builds(op_set_version, _small, st.text(max_size=8)),
    st.builds(op_drop_segment, st.text(max_size=20)),
    st.builds(op_set_location, st.text(max_size=20), st.integers(0, 9),
              st.text(max_size=10)),
    st.builds(
        lambda path, size, ids, dev: op_upsert_file(
            FileSnapshot(path, 1.5, size, ids, dev)),
        _paths, _small, st.lists(st.text(max_size=12), max_size=4),
        st.text(max_size=8),
    ),
    st.builds(
        lambda n, dev, path: op_txn_round(f"{dev}:{n}", n, dev,
                                          [op_delete_file(path)]),
        _small, st.text(max_size=8), _paths,
    ),
)


def legacy_seal(ops, key=KEY):
    """The pre-prefix-stable wire form: IV = sha1(whole plaintext)."""
    lines = "\n".join(
        json.dumps(op, sort_keys=True, separators=(",", ":")) for op in ops
    ).encode()
    return encrypt_cbc(key, lines, hashlib.sha1(lines).digest()[:8])


def count_sealed_blocks(monkeypatch):
    """Blocks through deltasync's encrypt_cbc binding, per call."""
    sealed = []
    real = deltasync.encrypt_cbc

    def counting(key, plaintext, iv):
        sealed.append(len(plaintext) // 8 + 1)
        return real(key, plaintext, iv)

    monkeypatch.setattr(deltasync, "encrypt_cbc", counting)
    return sealed


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


def test_append_encrypts_only_the_tail(monkeypatch):
    ops = [op_base_version(3)] + [
        op_upsert_file(FileSnapshot(f"/f{i}", 1.0, 100, [f"s{i}"], "d"))
        for i in range(40)
    ]
    blob = DeltaLog(ops).to_bytes(KEY)
    log = DeltaLog.from_bytes(blob, KEY)
    sealed = count_sealed_blocks(monkeypatch)
    log.append(op_set_version(4, "d"))
    grown = log.to_bytes(KEY)
    # One short record: the old final block, the record, the padding.
    assert sealed == [len(grown) // 8 - len(blob) // 8 + 1]
    assert sealed[0] < 10 < len(blob) // 8
    assert grown[:len(blob) - 8] == blob[:-8]  # prefix-stable on the wire
    # Sealing the same log again changes nothing and costs one block.
    assert log.to_bytes(KEY) == grown
    assert sealed[1] == 1


def test_rewritten_history_is_sealed_in_full(monkeypatch):
    """The shortcut compares bytes, not intentions: a log whose earlier
    records changed (or shrank) after from_bytes is sealed from the top."""
    ops = [op_base_version(3)] + [op_delete_file(f"/f{i}") for i in range(30)]
    edited = ops[:5] + [op_delete_file("/other")] + ops[6:]
    rebased = [op_base_version(4)] + edited[1:]
    expected = [DeltaLog(o).to_bytes(KEY) for o in (edited, rebased, [])]
    log = DeltaLog.from_bytes(DeltaLog(ops).to_bytes(KEY), KEY)
    sealed = count_sealed_blocks(monkeypatch)
    log.ops[5] = edited[5]
    assert log.to_bytes(KEY) == expected[0]
    log.ops[0] = rebased[0]  # a new first record is a new IV
    assert log.to_bytes(KEY) == expected[1]
    log.clear()
    assert log.to_bytes(KEY) == expected[2]
    assert sealed == [len(blob) // 8 - 1 for blob in expected]


def test_seal_under_another_key_shares_nothing():
    log = DeltaLog.from_bytes(
        DeltaLog([op_set_version(1, "d")]).to_bytes(KEY), KEY
    )
    log.append(op_delete_file("/x"))
    other = b"otherkey"
    assert log.to_bytes(other) == DeltaLog(log.ops).to_bytes(other)


def test_legacy_delta_is_read_and_extended(monkeypatch):
    ops = [op_base_version(2), op_set_version(3, "a"), op_delete_file("/y")]
    legacy = legacy_seal(ops)
    assert legacy != DeltaLog(ops).to_bytes(KEY)  # the IV rule did change
    # A one-record log is where both rules agree.
    assert legacy_seal(ops[:1]) == DeltaLog(ops[:1]).to_bytes(KEY)
    expected = DeltaLog(ops + [op_set_version(4, "b")]).to_bytes(KEY)
    log = DeltaLog.from_bytes(legacy, KEY)
    assert log.ops == ops
    sealed = count_sealed_blocks(monkeypatch)
    log.append(op_set_version(4, "b"))
    assert log.to_bytes(KEY) == expected
    assert sealed == [len(expected) // 8 - 1]  # the full seal, once ...
    log.append(op_set_version(5, "a"))
    assert DeltaLog.from_bytes(log.to_bytes(KEY), KEY).ops == log.ops
    assert sealed[1] < sealed[0]  # ... and tail-only from then on


def test_sealed_size_is_the_blob_length():
    for n in range(0, 40):
        log = DeltaLog([op_delete_file("/" + "p" * n)])
        assert log.sealed_size() == len(log.to_bytes(KEY))
    assert DeltaLog().sealed_size() == len(DeltaLog().to_bytes(KEY)) == 16


# -- untrusted bytes: one typed error -----------------------------------------


def sealed(plaintext: bytes) -> bytes:
    return encrypt_cbc(KEY, plaintext, b"\x00" * 8)


UNDECODABLE = {
    "short": b"12345678",
    "misaligned": sealed(b"{}") + b"x",
    "bad padding": sealed(b"{}")[:-1] + b"\x00",
    "bad utf-8": sealed(b"\xff\xfe{}"),
    "bad json": sealed(b'{"op": '),
    "json scalar": sealed(b"42"),
    "json list": sealed(b"[1, 2]"),
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
    b'{"op":"txn_round","counter":null}',
])
def test_malformed_delta_record_raises_metadata_error(line):
    with pytest.raises(MetadataError):
        DeltaLog.from_bytes(sealed(b'{"op":"delete_file","path":"/a"}\n'
                                   + line), KEY)


def test_unreplayable_record_raises_metadata_error():
    log = DeltaLog.from_bytes(sealed(b'{"op":"upsert_file"}'), KEY)
    with pytest.raises(MetadataError):
        log.apply_to(SyncFolderImage())


def test_metadata_error_is_a_value_error_with_its_cause():
    with pytest.raises(ValueError) as caught:
        deserialize_image(sealed(b"\xff"), KEY)
    assert isinstance(caught.value, MetadataError)
    assert isinstance(caught.value.__cause__, UnicodeDecodeError)
