"""The UniDrive metadata model (paper §5.1).

All metadata lives in a single logical document with three parts:

* **SyncFolderImage** — the file-hierarchy image: one entry per file,
  each holding the current *snapshot* (path, timestamp, size, ordered
  segment IDs) plus any conflict snapshots retained for the user;
* **segment pool** — one record per unique content segment: its size,
  erasure-code geometry, reference count, and the block→cloud map
  (Cloud-ID fields, filled in asynchronously as uploads complete);
* **ChangedFileList** — local, never uploaded: the changes accumulated
  since the last successful synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "MALFORMED",
    "MetadataError",
    "FileSnapshot",
    "FileEntry",
    "SegmentRecord",
    "SyncFolderImage",
    "VersionStamp",
]


class MetadataError(ValueError):
    """A metadata blob fetched from a cloud does not decode.

    Clouds are untrusted: bad padding, bad UTF-8, bad JSON and a
    document of the wrong shape all surface as this one error, which
    the client answers by trying the next replica.
    """


#: What decrypting and parsing untrusted bytes can raise before the
#: shape checks are through (PaddingError, UnicodeDecodeError and
#: JSONDecodeError are all ValueErrors).
MALFORMED = (ValueError, KeyError, TypeError, AttributeError)


@dataclass
class FileSnapshot:
    """All metadata of one file at one point in time (paper Figure 6)."""

    path: str
    timestamp: float  # originating device's mtime
    size: int
    segment_ids: List[str] = field(default_factory=list)
    device: str = ""  # which device produced this snapshot

    def signature(self) -> tuple:
        """Value identity used by merge/diff (content, not mtime)."""
        return (self.path, self.size, tuple(self.segment_ids))

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "timestamp": self.timestamp,
            "size": self.size,
            "segment_ids": list(self.segment_ids),
            "device": self.device,
        }

    @staticmethod
    def from_dict(data: dict) -> "FileSnapshot":
        return FileSnapshot(
            path=data["path"],
            timestamp=data["timestamp"],
            size=data["size"],
            segment_ids=list(data["segment_ids"]),
            device=data.get("device", ""),
        )


@dataclass
class FileEntry:
    """One file in the image: its current snapshot + retained conflicts."""

    current: FileSnapshot
    conflicts: List[FileSnapshot] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "current": self.current.to_dict(),
            "conflicts": [snapshot.to_dict() for snapshot in self.conflicts],
        }

    @staticmethod
    def from_dict(data: dict) -> "FileEntry":
        return FileEntry(
            current=FileSnapshot.from_dict(data["current"]),
            conflicts=[
                FileSnapshot.from_dict(entry) for entry in data["conflicts"]
            ],
        )


@dataclass
class SegmentRecord:
    """One unique segment in the pool, with its block placement map."""

    segment_id: str
    size: int
    n: int  # total blocks the code can produce
    k: int  # blocks needed to decode
    locations: Dict[int, str] = field(default_factory=dict)  # index -> cloud
    refcount: int = 0
    #: index -> SHA-1 hex of the block's bytes, recorded at encode time.
    #: Blocks are deterministic functions of the segment content (the
    #: generator matrix is fixed by (n, k)), so every device derives the
    #: same hash for the same index — the map merges trivially.  Absent
    #: entries (pre-durability metadata) simply skip verification.
    block_hashes: Dict[int, str] = field(default_factory=dict)
    #: Redundancy debt: block indices a brownout commit could not place
    #: (fewer than n clouds writable).  The segment stays readable
    #: (>= k blocks landed) but below target redundancy until
    #: ``core.scrub`` re-encodes and places exactly these indices, then
    #: clears the list.  Empty for every commit made outside a
    #: brownout, and omitted from the serialized form when empty so
    #: pre-degradation metadata bytes are unchanged.
    debt: List[int] = field(default_factory=list)

    def clouds_holding(self) -> List[str]:
        return sorted(set(self.locations.values()))

    def blocks_on(self, cloud_id: str) -> List[int]:
        return sorted(
            idx for idx, cloud in self.locations.items() if cloud == cloud_id
        )

    def block_name(self, index: int) -> str:
        """Cloud-side file name: segment ID + block sequence number."""
        return f"{self.segment_id}.{index}"

    def to_dict(self) -> dict:
        out = {
            "segment_id": self.segment_id,
            "size": self.size,
            "n": self.n,
            "k": self.k,
            "locations": {str(i): c for i, c in sorted(self.locations.items())},
            "refcount": self.refcount,
            "block_hashes": {
                str(i): h for i, h in sorted(self.block_hashes.items())
            },
        }
        if self.debt:
            out["debt"] = sorted(self.debt)
        return out

    @staticmethod
    def from_dict(data: dict) -> "SegmentRecord":
        return SegmentRecord(
            segment_id=data["segment_id"],
            size=data["size"],
            n=data["n"],
            k=data["k"],
            locations={int(i): c for i, c in data["locations"].items()},
            refcount=data["refcount"],
            block_hashes={
                int(i): h
                for i, h in data.get("block_hashes", {}).items()
            },
            debt=[int(i) for i in data.get("debt", [])],
        )


@dataclass
class VersionStamp:
    """Content of the small version file used for cheap update checks.

    ``counter`` is a logical version (monotonically increasing across
    commits); ``device`` identifies the committer.  No wall-clock
    comparison is ever made across devices.
    """

    counter: int = 0
    device: str = ""

    def newer_than(self, other: "VersionStamp") -> bool:
        return self.counter > other.counter

    def differs_from(self, other: "VersionStamp") -> bool:
        return self.counter != other.counter or self.device != other.device

    def to_dict(self) -> dict:
        return {"counter": self.counter, "device": self.device}

    @staticmethod
    def from_dict(data: dict) -> "VersionStamp":
        return VersionStamp(counter=data["counter"], device=data["device"])


class SyncFolderImage:
    """The single metadata document replicated to every cloud."""

    def __init__(self, device: str = ""):
        self.version = VersionStamp(0, device)
        self.files: Dict[str, FileEntry] = {}
        self.segments: Dict[str, SegmentRecord] = {}

    # -- file operations ----------------------------------------------------

    def upsert_file(self, snapshot: FileSnapshot) -> None:
        """Insert/replace a file entry, maintaining segment refcounts."""
        existing = self.files.get(snapshot.path)
        if existing is not None:
            self._unref(existing.current.segment_ids)
        self.files[snapshot.path] = FileEntry(
            current=snapshot,
            conflicts=existing.conflicts if existing else [],
        )
        self._ref(snapshot.segment_ids)

    def delete_file(self, path: str) -> None:
        entry = self.files.pop(path, None)
        if entry is not None:
            self._unref(entry.current.segment_ids)
            for conflict in entry.conflicts:
                self._unref(conflict.segment_ids)

    def add_conflict(self, path: str, snapshot: FileSnapshot) -> None:
        """Retain a losing update for later user resolution (paper §5.2)."""
        entry = self.files.get(path)
        if entry is None:
            self.upsert_file(snapshot)
            return
        entry.conflicts.append(snapshot)
        self._ref(snapshot.segment_ids)

    def resolve_conflict(self, path: str, keep_conflict_index: Optional[int] = None) -> None:
        """Drop retained conflicts; optionally promote one to current.

        Idempotent: resolution ops replicate through the delta log, and
        two devices resolving the same path concurrently replay each
        other's op on an entry whose conflict list is already empty.  A
        ``keep_conflict_index`` that no longer exists (stale against the
        current conflict list) makes the whole op a no-op rather than
        corrupting the entry or raising mid-replay.
        """
        entry = self.files.get(path)
        if entry is None:
            return
        if keep_conflict_index is not None and not (
            0 <= keep_conflict_index < len(entry.conflicts)
        ):
            return  # already applied (or never valid): nothing to do
        conflicts, entry.conflicts = entry.conflicts, []
        if keep_conflict_index is not None:
            winner = conflicts.pop(keep_conflict_index)
            self._unref(entry.current.segment_ids)
            entry.current = winner
            self._ref(winner.segment_ids)
            # The promoted snapshot's pool reference carries over 1:1.
            self._unref(winner.segment_ids)
        for leftover in conflicts:
            self._unref(leftover.segment_ids)

    # -- segment pool ----------------------------------------------------

    def add_segment(self, record: SegmentRecord) -> None:
        existing = self.segments.get(record.segment_id)
        if existing is None:
            self.segments[record.segment_id] = record
        else:
            # Same content chunked twice: merge placements conservatively.
            existing.locations.update(record.locations)
            existing.block_hashes.update(record.block_hashes)
            # Debt is the union of both sides' unplaced indices, minus
            # anything a placement (either side's, or a scrub repay)
            # has since landed — a placed index is never owed.
            if existing.debt or record.debt:
                existing.debt = sorted(
                    (set(existing.debt) | set(record.debt))
                    - set(existing.locations)
                )

    def set_block_location(self, segment_id: str, index: int, cloud_id: str) -> None:
        """The asynchronous Cloud-ID callback after a block upload."""
        record = self.segments.get(segment_id)
        if record is None:
            raise KeyError(f"unknown segment {segment_id}")
        if not 0 <= index < record.n:
            raise IndexError(f"block index {index} outside [0, {record.n})")
        record.locations[index] = cloud_id
        if record.debt and index in record.debt:
            record.debt.remove(index)

    def garbage_segments(self) -> List[SegmentRecord]:
        """Segments no file references; their cloud blocks can be deleted."""
        return [seg for seg in self.segments.values() if seg.refcount <= 0]

    def drop_segment(self, segment_id: str) -> None:
        self.segments.pop(segment_id, None)

    def _ref(self, segment_ids: List[str]) -> None:
        for segment_id in segment_ids:
            record = self.segments.get(segment_id)
            if record is not None:
                record.refcount += 1

    def _unref(self, segment_ids: List[str]) -> None:
        for segment_id in segment_ids:
            record = self.segments.get(segment_id)
            if record is not None:
                record.refcount -= 1

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version.to_dict(),
            "files": {
                path: entry.to_dict() for path, entry in sorted(self.files.items())
            },
            "segments": {
                sid: seg.to_dict() for sid, seg in sorted(self.segments.items())
            },
        }

    @staticmethod
    def from_dict(data: dict) -> "SyncFolderImage":
        image = SyncFolderImage()
        image.version = VersionStamp.from_dict(data["version"])
        image.files = {
            path: FileEntry.from_dict(entry)
            for path, entry in data["files"].items()
        }
        image.segments = {
            sid: SegmentRecord.from_dict(seg)
            for sid, seg in data["segments"].items()
        }
        return image

    def copy(self) -> "SyncFolderImage":
        """A deep copy equal to ``from_dict(to_dict())``, built directly.

        Same iteration order at every level: files and segments by key,
        ``locations`` and ``block_hashes`` by index, ``debt`` sorted.
        """
        def snap(s: FileSnapshot) -> FileSnapshot:
            return FileSnapshot(s.path, s.timestamp, s.size,
                                list(s.segment_ids), s.device)

        image = SyncFolderImage()
        image.version = VersionStamp(self.version.counter, self.version.device)
        image.files = {
            path: FileEntry(snap(e.current), [snap(c) for c in e.conflicts])
            for path, e in sorted(self.files.items())
        }
        image.segments = {
            sid: SegmentRecord(
                s.segment_id, s.size, s.n, s.k,
                dict(sorted(s.locations.items())),
                s.refcount,
                dict(sorted(s.block_hashes.items())),
                sorted(s.debt),
            )
            for sid, s in sorted(self.segments.items())
        }
        return image
