"""Regressions for merge races, conflict policies, and atomic rounds.

Covers the three PR-8 bug classes plus the policy layer they motivated:

* the delete-vs-concurrent-retention lost update (``diff_images`` is
  blind to conflict-list changes, so a local delete used to drop a
  concurrently retained snapshot);
* non-idempotent ``resolve_conflict`` replays (a stale
  ``keep_conflict_index`` corrupted the entry when the same op arrived
  twice through the delta log);
* ``MergePolicy`` semantics (retain-both / last-writer-wins / per-path);
* the version marker a delta log ends at.
"""

import pytest

from repro.core.deltasync import (
    DeltaLog,
    op_base_version,
    op_resolve_conflict,
    op_set_version,
)
from repro.core.merge import (
    LAST_WRITER_WINS,
    PER_PATH,
    RETAIN_BOTH,
    MergePolicy,
    merge_images,
)
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


def register(image, *sids):
    for sid in sids:
        if sid not in image.segments:
            image.add_segment(SegmentRecord(sid, 10, 10, 3))


# -- bug 1: delete vs concurrent retention --------------------------------


def test_delete_vs_concurrent_retention_keeps_retained_snapshot():
    """Regression: a local delete must not silently drop a conflict
    snapshot another device retained concurrently.

    The cloud side's *current* snapshot is unchanged (the retention is
    invisible to ``diff_images``), so pre-fix the local delete took the
    only-local-change shortcut and dropped the whole entry — losing a
    committed update the deleting device had never seen.
    """
    base = image_with({"/f": ["s0"]})
    local = image_with({}, device="L")  # deleted /f, never saw sC
    cloud = image_with({"/f": ["s0"]}, device="C")
    register(cloud, "sC")
    cloud.add_conflict("/f", snap("/f", ["sC"], ts=2.0, device="C"))

    result = merge_images(base, local, cloud)

    entry = result.image.files.get("/f")
    assert entry is not None, "retained snapshot was dropped by the delete"
    assert entry.current.segment_ids == ["sC"]
    assert result.conflicts == ["/f"]
    assert result.image.segments["sC"].refcount == 1
    # The snapshot both sides agreed to delete really is gone.
    assert result.image.segments["s0"].refcount == 0


def test_delete_covers_conflicts_already_in_base():
    """A conflict the base already carried was visible to the deleting
    user; the delete covers it deliberately."""
    base = image_with({"/f": ["s0"]})
    register(base, "sOld")
    old_conflict = snap("/f", ["sOld"], ts=0.5, device="X")
    base.add_conflict("/f", old_conflict)

    local = base.copy()
    local.delete_file("/f")
    cloud = base.copy()

    result = merge_images(base, local, cloud)
    assert "/f" not in result.image.files
    assert result.conflicts == []
    assert result.applied_local == ["/f"]


def test_delete_vs_multiple_fresh_retentions_keeps_all():
    """Several concurrently retained snapshots all survive the delete:
    the newest becomes current, the rest stay retained."""
    base = image_with({"/f": ["s0"]})
    local = image_with({}, device="L")
    cloud = image_with({"/f": ["s0"]}, device="C")
    register(cloud, "sA", "sB")
    cloud.add_conflict("/f", snap("/f", ["sA"], ts=2.0, device="A"))
    cloud.add_conflict("/f", snap("/f", ["sB"], ts=3.0, device="B"))

    result = merge_images(base, local, cloud)
    entry = result.image.files["/f"]
    assert entry.current.segment_ids == ["sB"]
    assert [c.segment_ids for c in entry.conflicts] == [["sA"]]
    assert result.image.segments["sA"].refcount == 1
    assert result.image.segments["sB"].refcount == 1


# -- conflict policies -----------------------------------------------------


def divergent(ts_local=2.0, ts_cloud=3.0, dev_local="L", dev_cloud="C"):
    base = image_with({"/f": ["s0"]})
    local = image_with({}, device=dev_local)
    register(local, "sL")
    local.upsert_file(snap("/f", ["sL"], ts=ts_local, device=dev_local))
    cloud = image_with({}, device=dev_cloud)
    register(cloud, "sC")
    cloud.upsert_file(snap("/f", ["sC"], ts=ts_cloud, device=dev_cloud))
    return base, local, cloud


def test_retain_both_is_the_default_policy():
    base, local, cloud = divergent()
    result = merge_images(base, local, cloud)
    entry = result.image.files["/f"]
    assert entry.current.segment_ids == ["sC"]
    assert [c.segment_ids for c in entry.conflicts] == [["sL"]]
    assert result.conflicts == ["/f"]
    assert result.resolved == []


def test_last_writer_wins_local_newer():
    base, local, cloud = divergent(ts_local=9.0, ts_cloud=3.0)
    result = merge_images(base, local, cloud,
                          MergePolicy(LAST_WRITER_WINS))
    entry = result.image.files["/f"]
    assert entry.current.segment_ids == ["sL"]
    assert entry.conflicts == []
    assert result.conflicts == []
    assert result.resolved == ["/f"]
    # The losing edit's data really is discarded (refcount drops to 0).
    assert result.image.segments["sC"].refcount == 0


def test_last_writer_wins_cloud_newer():
    base, local, cloud = divergent(ts_local=2.0, ts_cloud=3.0)
    result = merge_images(base, local, cloud,
                          MergePolicy(LAST_WRITER_WINS))
    entry = result.image.files["/f"]
    assert entry.current.segment_ids == ["sC"]
    assert entry.conflicts == []
    assert result.resolved == ["/f"]


def test_last_writer_wins_timestamp_tie_breaks_on_device():
    """Equal mtimes fall back to the device name, so every replica
    reaches the same winner regardless of merge direction."""
    base, local, cloud = divergent(
        ts_local=5.0, ts_cloud=5.0, dev_local="zeta", dev_cloud="alpha"
    )
    result = merge_images(base, local, cloud,
                          MergePolicy(LAST_WRITER_WINS))
    assert result.image.files["/f"].current.segment_ids == ["sL"]


def test_per_path_resolver_decides_each_path():
    decisions = {"/f": "local"}

    def resolver(path, local_snap, cloud_snap):
        return decisions.get(path, "retain")

    base, local, cloud = divergent()
    result = merge_images(base, local, cloud,
                          MergePolicy(PER_PATH, resolver))
    assert result.image.files["/f"].current.segment_ids == ["sL"]
    assert result.resolved == ["/f"]

    decisions["/f"] = "retain"
    result = merge_images(base, local, cloud,
                          MergePolicy(PER_PATH, resolver))
    entry = result.image.files["/f"]
    assert entry.current.segment_ids == ["sC"]
    assert [c.segment_ids for c in entry.conflicts] == [["sL"]]


def test_per_path_resolver_bad_decision_raises():
    base, local, cloud = divergent()
    policy = MergePolicy(PER_PATH, lambda p, a, b: "newest")
    with pytest.raises(ValueError, match="resolver returned"):
        merge_images(base, local, cloud, policy)


def test_policy_validation():
    with pytest.raises(ValueError, match="unknown conflict policy"):
        MergePolicy("merge-sort")
    with pytest.raises(ValueError, match="needs a resolver"):
        MergePolicy(PER_PATH)
    assert MergePolicy().name == RETAIN_BOTH


def test_edit_vs_delete_wins_under_every_policy():
    for policy in (
        MergePolicy(),
        MergePolicy(LAST_WRITER_WINS),
        MergePolicy(PER_PATH, lambda p, a, b: "cloud"),
    ):
        base = image_with({"/f": ["s0"]})
        local = image_with({}, device="L")
        register(local, "sNew")
        local.upsert_file(snap("/f", ["sNew"], ts=2.0, device="L"))
        cloud = image_with({}, device="C")  # deleted
        result = merge_images(base, local, cloud, policy)
        assert result.image.files["/f"].current.segment_ids == ["sNew"]


# -- bug 2: idempotent conflict resolution --------------------------------


def resolved_image():
    image = image_with({"/f": ["s0"]})
    register(image, "sK")
    image.add_conflict("/f", snap("/f", ["sK"], ts=2.0, device="K"))
    return image


def test_resolve_conflict_replay_is_idempotent():
    """Regression: replaying a resolution op against an entry whose
    conflict list is already empty must be a no-op, not an IndexError
    or a second promotion."""
    image = resolved_image()
    image.resolve_conflict("/f", keep_conflict_index=0)
    assert image.files["/f"].current.segment_ids == ["sK"]
    before = image.to_dict()
    # Second replay (same op via another device's delta log).
    image.resolve_conflict("/f", keep_conflict_index=0)
    assert image.to_dict() == before


def test_resolve_conflict_stale_index_is_noop():
    image = resolved_image()
    image.resolve_conflict("/f", keep_conflict_index=7)  # never valid
    entry = image.files["/f"]
    assert entry.current.segment_ids == ["s0"]
    assert [c.segment_ids for c in entry.conflicts] == [["sK"]]


def test_resolve_conflict_double_apply_through_delta_log():
    log = DeltaLog()
    log.append(op_resolve_conflict("/f", 0))
    log.append(op_resolve_conflict("/f", 0))  # duplicated by a resync
    image = resolved_image()
    log.apply_to(image)
    assert image.files["/f"].current.segment_ids == ["sK"]
    assert image.files["/f"].conflicts == []
    # Promoted snapshot's segments stay referenced exactly once.
    assert image.segments["sK"].refcount == 1
    assert image.segments["s0"].refcount == 0


# -- version markers -------------------------------------------------------


def test_latest_version_sees_both_markers():
    """A log carries two markers: the base version it extends, first,
    and one ``set_version`` per commit.  A reader ends at the last
    commit's version; the base marker is not a commit."""
    log = DeltaLog([
        op_base_version(9),
        op_set_version(10, "a"),
        op_set_version(11, "b"),
    ])
    assert log.latest_version() == 11
    assert log.base_marker() == 9
    assert DeltaLog([op_base_version(9)]).latest_version() == 0
