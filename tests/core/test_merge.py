"""Tests for three-way metadata merge and conflict handling."""

from repro.core.merge import diff_images, merge_images, recompute_refcounts
from repro.core.metadata import FileSnapshot, SegmentRecord, SyncFolderImage


def snap(path, segs, size=10, ts=1.0, device="d"):
    return FileSnapshot(path, ts, size, list(segs), device)


def image_with(files, device="d"):
    """files: {path: [segment_ids]}; segments are auto-registered."""
    image = SyncFolderImage(device)
    for path, segs in files.items():
        for sid in segs:
            if sid not in image.segments:
                image.add_segment(SegmentRecord(sid, 10, 10, 3))
        image.upsert_file(snap(path, segs, device=device))
    return image


def test_diff_empty_images():
    assert diff_images(SyncFolderImage(), SyncFolderImage()) == {}


def test_diff_reports_add_edit_delete():
    old = image_with({"/keep": ["s1"], "/edit": ["s2"], "/gone": ["s3"]})
    new = image_with({"/keep": ["s1"], "/edit": ["s9"], "/new": ["s4"]})
    changes = diff_images(old, new)
    assert set(changes) == {"/edit", "/gone", "/new"}
    assert changes["/edit"][0] == "upsert"
    assert changes["/gone"][0] == "delete"
    assert changes["/new"][0] == "upsert"


def test_diff_ignores_timestamp_only_changes():
    old = image_with({"/f": ["s1"]})
    new = image_with({"/f": ["s1"]})
    new.files["/f"].current.timestamp = 99.0
    assert diff_images(old, new) == {}


def test_merge_disjoint_changes():
    base = image_with({"/a": ["s1"]})
    local = image_with({"/a": ["s1"], "/mine": ["s2"]}, device="L")
    cloud = image_with({"/a": ["s1"], "/theirs": ["s3"]}, device="C")
    result = merge_images(base, local, cloud)
    assert set(result.image.files) == {"/a", "/mine", "/theirs"}
    assert result.conflicts == []
    assert result.applied_local == ["/mine"]


def test_merge_local_delete_propagates():
    base = image_with({"/a": ["s1"], "/b": ["s2"]})
    local = image_with({"/a": ["s1"]}, device="L")  # deleted /b
    cloud = image_with({"/a": ["s1"], "/b": ["s2"]}, device="C")
    result = merge_images(base, local, cloud)
    assert "/b" not in result.image.files
    assert result.conflicts == []


def test_merge_divergent_edits_conflict():
    base = image_with({"/f": ["s0"]})
    local = image_with({"/f": ["sL"]}, device="L")
    cloud = image_with({"/f": ["sC"]}, device="C")
    result = merge_images(base, local, cloud)
    assert result.conflicts == ["/f"]
    entry = result.image.files["/f"]
    # Cloud version stays current; local snapshot retained as conflict.
    assert entry.current.segment_ids == ["sC"]
    assert [c.segment_ids for c in entry.conflicts] == [["sL"]]
    # Both contents' segments remain referenced (data not discarded).
    assert result.image.segments["sC"].refcount == 1
    assert result.image.segments["sL"].refcount == 1


def test_merge_identical_concurrent_edits_agree():
    base = image_with({"/f": ["s0"]})
    local = image_with({"/f": ["sX"]}, device="L")
    cloud = image_with({"/f": ["sX"]}, device="C")
    result = merge_images(base, local, cloud)
    assert result.conflicts == []
    assert result.image.files["/f"].conflicts == []


def test_merge_both_delete_agree():
    base = image_with({"/f": ["s0"]})
    local = image_with({}, device="L")
    cloud = image_with({}, device="C")
    result = merge_images(base, local, cloud)
    assert result.conflicts == []
    assert result.image.files == {}


def test_merge_edit_vs_delete_resurrects():
    base = image_with({"/f": ["s0"]})
    local = image_with({"/f": ["sNew"]}, device="L")  # edited
    cloud = image_with({}, device="C")  # deleted
    result = merge_images(base, local, cloud)
    assert result.image.files["/f"].current.segment_ids == ["sNew"]
    assert result.conflicts == []


def test_merge_delete_vs_edit_keeps_cloud():
    base = image_with({"/f": ["s0"]})
    local = image_with({}, device="L")  # deleted
    cloud = image_with({"/f": ["sC"]}, device="C")  # edited
    result = merge_images(base, local, cloud)
    assert result.image.files["/f"].current.segment_ids == ["sC"]
    assert result.conflicts == ["/f"]


def test_merge_unions_segment_locations():
    base = image_with({"/f": ["s1"]})
    local = image_with({"/f": ["s1"], "/g": ["s2"]}, device="L")
    local.segments["s2"].locations = {0: "dropbox", 1: "gdrive"}
    cloud = base.copy()
    result = merge_images(base, local, cloud)
    assert result.image.segments["s2"].locations == {0: "dropbox", 1: "gdrive"}


def test_merge_writes_a_shared_record_only_for_local_news():
    base = image_with({"/f": ["s1", "s2"]})
    base.segments["s1"].locations = {0: "dropbox"}
    base.segments["s2"].locations = {0: "dropbox"}
    cloud, local = base.copy(), base.copy()
    local.set_block_location("s1", 3, "onedrive")
    before = cloud.to_dict()
    merged = merge_images(base, local, cloud).image
    assert merged.segments["s1"].locations == {0: "dropbox", 3: "onedrive"}
    assert merged.segments["s2"] is cloud.segments["s2"]
    assert cloud.to_dict() == before


def test_merge_does_not_mutate_inputs():
    base = image_with({"/f": ["s0"]})
    local = image_with({"/f": ["sL"]}, device="L")
    cloud = image_with({"/f": ["sC"]}, device="C")
    before = cloud.to_dict()
    merge_images(base, local, cloud)
    assert cloud.to_dict() == before


def test_recompute_refcounts():
    image = image_with({"/a": ["s1"], "/b": ["s1", "s2"]})
    image.segments["s1"].refcount = 99
    recompute_refcounts(image)
    assert image.segments["s1"].refcount == 2
    assert image.segments["s2"].refcount == 1
