"""Three-way metadata merge with conflict retention (paper §5.2).

When a device holds local updates and discovers cloud updates committed
by another device, it reconciles them SVN/GIT-style:

* ``delta_local  = diff(v_o, v_l)`` and ``delta_cloud = diff(v_o, v_c)``
  are computed by tree comparison against the common ancestor ``v_o``;
* paths touched by only one side merge automatically;
* paths touched by both sides with different outcomes are **conflicts**,
  handled by the folder's :class:`MergePolicy`:

  - ``retain-both`` (the paper's default): the cloud version stays
    current, the local snapshot is *retained* in the entry's conflict
    list (its content data is never discarded), and the caller surfaces
    it to the user;
  - ``last-writer-wins``: the snapshot with the larger
    ``(timestamp, device)`` key becomes current and the loser is
    deliberately discarded — deterministic on every device because the
    key is part of the snapshots being merged, never local state;
  - ``per-path``: a caller-supplied **pure** function of
    ``(path, local, cloud)`` returns one of ``"retain"`` / ``"local"``
    / ``"cloud"``.  It must be deterministic: the merging device
    commits the *outcome* to metadata, so every reader replays the
    same decision, but two devices merging concurrently (a broken
    lock) would each consult their own copy of the callback.

* edit-vs-delete resolves in favour of the edit (no silent data loss),
  under every policy.

Concurrent-retention subtlety (the lost-update bug this module once
had): ``diff_images`` compares only *current* snapshots — a cloud-side
commit that merely **retained a conflict snapshot** under a path is
invisible to the tree diff.  A local delete of that path used to take
the "only the local side touched this" shortcut and drop the retained
snapshot with the entry — silently losing a committed update that the
deleting device had never seen.  ``merge_images`` now checks the cloud
entry for conflict snapshots that are *fresh* relative to the base and
lets them win against the blind delete (the same rule as
edit-vs-delete: an edit beats a delete).  Conflicts the base already
carried were visible to the deleting user, so a delete still covers
those deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .metadata import FileSnapshot, SyncFolderImage

__all__ = [
    "ChangeType",
    "MergePolicy",
    "MergeResult",
    "RETAIN_BOTH",
    "LAST_WRITER_WINS",
    "PER_PATH",
    "diff_images",
    "merge_images",
    "recompute_refcounts",
]


class ChangeType:
    UPSERT = "upsert"
    DELETE = "delete"


#: Conflict-policy names (``UniDriveConfig.conflict_policy``).
RETAIN_BOTH = "retain-both"
LAST_WRITER_WINS = "last-writer-wins"
PER_PATH = "per-path"

_POLICY_NAMES = (RETAIN_BOTH, LAST_WRITER_WINS, PER_PATH)
_DECISIONS = ("retain", "local", "cloud")


@dataclass(frozen=True)
class MergePolicy:
    """How divergent concurrent edits of one path are reconciled.

    ``resolver`` is consulted only under the ``per-path`` policy; it
    must be a pure function ``(path, local, cloud) -> decision`` with
    decision one of ``"retain"``, ``"local"``, ``"cloud"``.
    """

    name: str = RETAIN_BOTH
    resolver: Optional[
        Callable[[str, FileSnapshot, FileSnapshot], str]
    ] = None

    def __post_init__(self):
        if self.name not in _POLICY_NAMES:
            raise ValueError(
                f"unknown conflict policy {self.name!r}; "
                f"pick one of {_POLICY_NAMES}"
            )
        if self.name == PER_PATH and self.resolver is None:
            raise ValueError("per-path policy needs a resolver callback")

    def decide(self, path: str, local: FileSnapshot,
               cloud: FileSnapshot) -> str:
        """Reconcile one divergent edit; returns retain/local/cloud."""
        if self.name == LAST_WRITER_WINS:
            local_key = (local.timestamp, local.device)
            cloud_key = (cloud.timestamp, cloud.device)
            return "local" if local_key > cloud_key else "cloud"
        if self.name == PER_PATH:
            decision = self.resolver(path, local, cloud)
            if decision not in _DECISIONS:
                raise ValueError(
                    f"per-path resolver returned {decision!r}; "
                    f"expected one of {_DECISIONS}"
                )
            return decision
        return "retain"


#: Shared default so ``merge_images(policy=None)`` allocates nothing.
_DEFAULT_POLICY = MergePolicy()


def diff_images(
    old: SyncFolderImage, new: SyncFolderImage
) -> Dict[str, Tuple[str, Optional[FileSnapshot]]]:
    """Per-path changes from ``old`` to ``new`` (tree comparison).

    Returns ``{path: (ChangeType, snapshot-or-None)}``; unchanged paths
    (identical signatures) are omitted.  Only *current* snapshots are
    compared — conflict retention is invisible to the diff, which is
    why :func:`merge_images` re-checks cloud entries before honouring a
    local delete.
    """
    changes: Dict[str, Tuple[str, Optional[FileSnapshot]]] = {}
    for path, entry in new.files.items():
        old_entry = old.files.get(path)
        if old_entry is None or (
            old_entry.current.signature() != entry.current.signature()
        ):
            changes[path] = (ChangeType.UPSERT, entry.current)
    for path in old.files:
        if path not in new.files:
            changes[path] = (ChangeType.DELETE, None)
    return changes


@dataclass
class MergeResult:
    """Outcome of a three-way merge."""

    image: SyncFolderImage
    conflicts: List[str]  # paths where both sides changed differently
    applied_local: List[str]  # local changes that made it into the merge
    resolved: List[str]  # conflicts a policy settled without retention


def _fresh_conflicts(base: SyncFolderImage, cloud: SyncFolderImage,
                     path: str) -> List[FileSnapshot]:
    """Cloud-retained conflict snapshots the base never carried.

    These were committed concurrently with whatever the local side did
    to ``path``: the local device could not have seen them, so no local
    operation may silently discard them.
    """
    cloud_entry = cloud.files.get(path)
    if cloud_entry is None or not cloud_entry.conflicts:
        return []
    base_entry = base.files.get(path)
    base_sigs = (
        {snap.signature() for snap in base_entry.conflicts}
        if base_entry is not None else set()
    )
    return [
        snap for snap in cloud_entry.conflicts
        if snap.signature() not in base_sigs
    ]


def merge_images(
    base: SyncFolderImage,
    local: SyncFolderImage,
    cloud: SyncFolderImage,
    policy: Optional[MergePolicy] = None,
) -> MergeResult:
    """Merge concurrent local and cloud updates over a common base."""
    policy = policy or _DEFAULT_POLICY
    delta_local = diff_images(base, local)
    delta_cloud = diff_images(base, cloud)
    merged = cloud.copy()
    conflicts: List[str] = []
    applied: List[str] = []
    resolved: List[str] = []

    # Segment pool union first, so upserts can reference local segments.
    # A record both sides already agree on is not written (not cloned).
    for segment_id, record in local.segments.items():
        mine = merged.segments.get(segment_id)
        if mine is None:
            merged.add_segment(record.__class__.from_dict(record.to_dict()))
        elif not (record.locations.items() <= mine.locations.items()
                  and record.block_hashes.items() <= mine.block_hashes.items()):
            merged.write_segment(
                segment_id,
                locations={**mine.locations, **record.locations},
                block_hashes={**mine.block_hashes, **record.block_hashes},
            )

    for path, (kind, snapshot) in delta_local.items():
        cloud_change = delta_cloud.get(path)
        if cloud_change is None:
            # Only the local side touched this path's *current* snapshot.
            if kind == ChangeType.UPSERT:
                merged.upsert_file(snapshot)  # preserves cloud conflicts
                applied.append(path)
                continue
            retained = _fresh_conflicts(base, cloud, path)
            if retained:
                # Delete-vs-concurrent-retention: the retained edits win
                # (the edit-beats-delete rule).  Promote the newest
                # fresh snapshot to current; keep the rest retained.
                merged.delete_file(path)
                merged.upsert_file(retained[-1])
                for leftover in retained[:-1]:
                    merged.add_conflict(path, leftover)
                conflicts.append(path)
            else:
                merged.delete_file(path)
                applied.append(path)
            continue
        cloud_kind, cloud_snapshot = cloud_change
        if kind == cloud_kind == ChangeType.DELETE:
            continue  # both deleted: agreement
        if (
            kind == cloud_kind == ChangeType.UPSERT
            and snapshot.signature() == cloud_snapshot.signature()
        ):
            continue  # coincident identical update: agreement
        if kind == ChangeType.UPSERT and cloud_kind == ChangeType.DELETE:
            # Edit-vs-delete: the edit wins (resurrect the file).
            merged.upsert_file(snapshot)
            applied.append(path)
            continue
        if kind == ChangeType.DELETE and cloud_kind == ChangeType.UPSERT:
            # Delete-vs-edit: the cloud edit stays; nothing to retain.
            conflicts.append(path)
            continue
        # Divergent edits: the policy picks a winner or retains both.
        decision = policy.decide(path, snapshot, cloud_snapshot)
        if decision == "local":
            merged.upsert_file(snapshot)
            applied.append(path)
            resolved.append(path)
        elif decision == "cloud":
            resolved.append(path)  # cloud already current in merged
        else:
            # Cloud stays current, local retained for the user.
            merged.add_conflict(path, snapshot)
            conflicts.append(path)

    recompute_refcounts(merged)
    return MergeResult(image=merged, conflicts=sorted(conflicts),
                       applied_local=sorted(applied),
                       resolved=sorted(resolved))


def recompute_refcounts(image: SyncFolderImage) -> None:
    """Rebuild the segment pool's reference counts from file entries.

    Run after a merge: incremental counting across three images is
    error-prone, whereas the file entries are the single source of truth.
    Unreferenced segments are kept (refcount 0) for the garbage collector
    to reap along with their cloud blocks.  Only records whose count
    changes are written.
    """
    counts = dict.fromkeys(image.segments, 0)
    for entry in image.files.values():
        for snapshot in (entry.current, *entry.conflicts):
            for segment_id in snapshot.segment_ids:
                if segment_id in counts:
                    counts[segment_id] += 1
    for segment_id, count in counts.items():
        if image.segments[segment_id].refcount != count:
            image.write_segment(segment_id, refcount=count)
