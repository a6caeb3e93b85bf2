"""Tests for the SyncFolderImage metadata model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata import (
    FileSnapshot,
    SegmentRecord,
    SyncFolderImage,
    VersionStamp,
)


def snap(path, segs, size=10, ts=1.0, device="d1"):
    return FileSnapshot(path=path, timestamp=ts, size=size,
                        segment_ids=list(segs), device=device)


def seg(segment_id, n=10, k=3, size=100):
    return SegmentRecord(segment_id=segment_id, size=size, n=n, k=k)


def test_upsert_and_read_back():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.upsert_file(snap("/a.txt", ["s1"]))
    assert image.files["/a.txt"].current.segment_ids == ["s1"]
    assert image.segments["s1"].refcount == 1


def test_upsert_replaces_and_refcounts():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.add_segment(seg("s2"))
    image.upsert_file(snap("/a", ["s1"]))
    image.upsert_file(snap("/a", ["s2"]))
    assert image.segments["s1"].refcount == 0
    assert image.segments["s2"].refcount == 1


def test_shared_segment_refcount():
    image = SyncFolderImage("d1")
    image.add_segment(seg("shared"))
    image.upsert_file(snap("/a", ["shared"]))
    image.upsert_file(snap("/b", ["shared"]))
    assert image.segments["shared"].refcount == 2
    image.delete_file("/a")
    assert image.segments["shared"].refcount == 1


def test_delete_file_unrefs_conflicts_too():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.add_segment(seg("s2"))
    image.upsert_file(snap("/f", ["s1"]))
    image.add_conflict("/f", snap("/f", ["s2"], device="d2"))
    image.delete_file("/f")
    assert image.segments["s1"].refcount == 0
    assert image.segments["s2"].refcount == 0


def test_garbage_segments():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.upsert_file(snap("/f", ["s1"]))
    assert image.garbage_segments() == []
    image.delete_file("/f")
    garbage = image.garbage_segments()
    assert [g.segment_id for g in garbage] == ["s1"]
    image.drop_segment("s1")
    assert image.segments == {}


def test_set_block_location_callback():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1", n=5))
    image.set_block_location("s1", 2, "dropbox")
    assert image.segments["s1"].locations == {2: "dropbox"}
    with pytest.raises(KeyError):
        image.set_block_location("unknown", 0, "c")
    with pytest.raises(IndexError):
        image.set_block_location("s1", 9, "c")


def test_segment_record_helpers():
    record = seg("s1", n=6)
    record.locations = {0: "a", 1: "b", 2: "a", 5: "c"}
    assert record.clouds_holding() == ["a", "b", "c"]
    assert record.blocks_on("a") == [0, 2]
    assert record.block_name(3) == "s1.3"


def test_conflict_resolution_keep_current():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.add_segment(seg("s2"))
    image.upsert_file(snap("/f", ["s1"]))
    image.add_conflict("/f", snap("/f", ["s2"], device="d2"))
    image.resolve_conflict("/f")
    assert image.files["/f"].conflicts == []
    assert image.segments["s2"].refcount == 0
    assert image.segments["s1"].refcount == 1


def test_conflict_resolution_promote():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.add_segment(seg("s2"))
    image.upsert_file(snap("/f", ["s1"]))
    image.add_conflict("/f", snap("/f", ["s2"], device="d2"))
    image.resolve_conflict("/f", keep_conflict_index=0)
    assert image.files["/f"].current.segment_ids == ["s2"]
    assert image.segments["s1"].refcount == 0
    assert image.segments["s2"].refcount == 1


def test_version_stamp_semantics():
    a = VersionStamp(1, "d1")
    b = VersionStamp(2, "d2")
    assert b.newer_than(a)
    assert not a.newer_than(b)
    assert a.differs_from(b)
    assert not a.differs_from(VersionStamp(1, "d1"))


def test_serialization_roundtrip_dict():
    image = SyncFolderImage("d1")
    image.version = VersionStamp(7, "d1")
    image.add_segment(seg("s1", n=10, k=3))
    image.set_block_location("s1", 0, "dropbox")
    image.upsert_file(snap("/x", ["s1"]))
    image.add_conflict("/x", snap("/x", ["s1"], device="d2"))
    clone = SyncFolderImage.from_dict(image.to_dict())
    assert clone.to_dict() == image.to_dict()
    assert clone.version.counter == 7
    assert clone.segments["s1"].locations == {0: "dropbox"}


def test_copy_is_deep():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.upsert_file(snap("/f", ["s1"]))
    clone = image.copy()
    clone.set_block_location("s1", 1, "x")
    assert image.segments["s1"].locations == {}


@st.composite
def images(draw):
    """Random images: shuffled insertion order, conflicts, debt,
    block hashes, segments at refcount 0."""
    image = SyncFolderImage(draw(st.sampled_from(["", "d1", "d2"])))
    image.version = VersionStamp(draw(st.integers(0, 99)), "d3")
    sids = draw(st.lists(st.text("abcdef", min_size=1, max_size=4),
                         unique=True, max_size=8))
    for sid in sids:
        record = seg(sid, n=6, k=2)
        for index in draw(st.permutations(range(6)))[:draw(st.integers(0, 6))]:
            record.locations[index] = draw(st.sampled_from("xyz"))
        for index in draw(st.lists(st.integers(0, 5), max_size=4)):
            record.block_hashes[index] = f"h{index}"
        record.debt = draw(st.lists(st.integers(0, 5), max_size=3))
        image.add_segment(record)
    for path in draw(st.lists(st.text("pqr/", min_size=1, max_size=5),
                              unique=True, max_size=8)):
        picked = draw(st.lists(st.sampled_from(sids), max_size=3)) if sids else []
        image.upsert_file(snap(path, picked, ts=draw(st.floats(0, 1e9))))
        for _ in range(draw(st.integers(0, 2))):
            image.add_conflict(path, snap(path, picked[::-1], device="d2"))
    return image


def order(image):
    """Every iteration order a caller can observe."""
    return (
        list(image.files),
        [(len(e.conflicts), e.current.segment_ids) for e in image.files.values()],
        list(image.segments),
        [(list(s.locations), list(s.block_hashes), s.debt)
         for s in image.segments.values()],
    )


@settings(max_examples=80, deadline=None)
@given(images(), st.data())
def test_copy_equals_dict_roundtrip(image, data):
    clone = image.copy()
    reference = SyncFolderImage.from_dict(image.to_dict())
    assert clone.version == reference.version
    assert clone.files == reference.files
    assert clone.segments == reference.segments
    assert order(clone) == order(reference)
    # Deep: mutating anything reachable from the copy leaves the original.
    before = image.to_dict()
    for entry in clone.files.values():
        entry.current.segment_ids.append("new")
        entry.conflicts.append(snap("/z", []))
        for conflict in entry.conflicts:
            conflict.segment_ids.clear()
    for record in clone.segments.values():
        record.locations[data.draw(st.integers(0, 5))] = "moved"
        record.refcount += 1
        record.debt.append(9)
        record.block_hashes[0] = "changed"
    clone.version.counter += 1
    assert image.to_dict() == before
