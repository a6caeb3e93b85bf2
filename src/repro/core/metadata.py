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

Images share records: one that another image can reach is *frozen*,
``_Record.write`` (the one place a record field is set) refuses it, and
an image clones it the first time it writes it.  A
:class:`FileSnapshot` is a value, never written once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "MALFORMED",
    "FrozenRecordError",
    "MetadataError",
    "FileSnapshot",
    "FileEntry",
    "SegmentRecord",
    "SyncFolderImage",
    "VersionStamp",
    "wire_counter",
]


class MetadataError(ValueError):
    """A metadata replica fetched from a cloud must not be adopted.

    ``reason`` says why: ``undecodable`` (what every parser of cloud
    bytes raises), ``stale`` (older than the poll proved exists) or
    ``corrupt-pair`` (its delta extends another base).  The client
    answers each by trying the next replica.
    """

    def __init__(self, message: str, reason: str = "undecodable"):
        super().__init__(message)
        self.reason = reason


class FrozenRecordError(RuntimeError):
    """A write to a record another image can reach (write the image)."""


class _Record:
    """Write rule shared by the two record kinds an image can share."""

    _frozen = False

    def write(self, **fields) -> None:
        """Set fields of a record no other image can reach."""
        if self._frozen:
            raise FrozenRecordError(f"{self!r} is shared between images")
        for name, value in fields.items():
            setattr(self, name, value)

    def _freeze(self):
        self._frozen = True
        return self


#: What decrypting and parsing untrusted bytes can raise before the
#: shape checks are through (PaddingError, UnicodeDecodeError and
#: JSONDecodeError are all ValueErrors; ``int()`` of ``Infinity``
#: overflows; JSON nested too deep raises RecursionError).
MALFORMED = (ValueError, KeyError, TypeError, AttributeError,
             OverflowError, RecursionError)


def wire_counter(value) -> int:
    """``value`` if it is a non-negative int, else TypeError (``"7"``,
    ``1.5``, ``true`` and ``Infinity`` must not reach a comparison)."""
    if type(value) is not int or value < 0:
        raise TypeError(f"not a version counter: {value!r}")
    return value


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
class FileEntry(_Record):
    """One file in the image: its current snapshot + retained conflicts."""

    current: FileSnapshot
    conflicts: List[FileSnapshot] = field(default_factory=list)

    def clone(self) -> "FileEntry":
        return FileEntry(self.current, list(self.conflicts))

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
class SegmentRecord(_Record):
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

    def clone(self) -> "SegmentRecord":
        return SegmentRecord(
            self.segment_id, self.size, self.n, self.k, dict(self.locations),
            self.refcount, dict(self.block_hashes), list(self.debt),
        )

    def _freeze(self) -> "SegmentRecord":
        """Canonical order (what ``from_dict(to_dict())`` gives), frozen."""
        self.locations = dict(sorted(self.locations.items()))
        self.block_hashes = dict(sorted(self.block_hashes.items()))
        self.debt.sort()
        return super()._freeze()

    def clouds_holding(self) -> List[str]:
        return sorted(set(self.locations.values()))

    def blocks_on(self, cloud_id: str) -> List[int]:
        return sorted(
            idx for idx, cloud in self.locations.items() if cloud == cloud_id
        )

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

    def to_dict(self) -> dict:
        return {"counter": self.counter, "device": self.device}

    @staticmethod
    def from_dict(data: dict) -> "VersionStamp":
        device = data["device"]
        if type(device) is not str:
            raise TypeError(f"not a device name: {device!r}")
        return VersionStamp(wire_counter(data["counter"]), device)


class SyncFolderImage:
    """The single metadata document replicated to every cloud."""

    def __init__(self, device: str = ""):
        self.version = VersionStamp(0, device)
        self.files: Dict[str, FileEntry] = {}
        self.segments: Dict[str, SegmentRecord] = {}
        # Keys of the records only this image reaches (not frozen).
        self._own_files: set = set()
        self._own_segments: set = set()

    # -- the write path -----------------------------------------------------

    def write_file(self, path: str, **fields) -> FileEntry:
        """Set fields of ``path``'s entry, cloning it first if shared."""
        return self._write(self.files, self._own_files, path, fields)

    def write_segment(self, segment_id: str, **fields) -> SegmentRecord:
        """Set fields of a pool record, cloning it first if shared."""
        return self._write(self.segments, self._own_segments, segment_id,
                           fields)

    @staticmethod
    def _write(table: dict, owned: set, key: str, fields: dict):
        record = table[key]
        if record._frozen:
            record = table[key] = record.clone()
            owned.add(key)
        record.write(**fields)
        return record

    # -- file operations ----------------------------------------------------

    def upsert_file(self, snapshot: FileSnapshot) -> None:
        """Insert/replace a file entry, maintaining segment refcounts."""
        existing = self.files.get(snapshot.path)
        if existing is not None:
            self._ref(existing.current.segment_ids, -1)
        self.files[snapshot.path] = FileEntry(
            current=snapshot,
            conflicts=list(existing.conflicts) if existing else [],
        )
        self._own_files.add(snapshot.path)
        self._ref(snapshot.segment_ids)

    def delete_file(self, path: str) -> None:
        entry = self.files.pop(path, None)
        self._own_files.discard(path)
        if entry is not None:
            self._ref(entry.current.segment_ids, -1)
            for conflict in entry.conflicts:
                self._ref(conflict.segment_ids, -1)

    def add_conflict(self, path: str, snapshot: FileSnapshot) -> None:
        """Retain a losing update for later user resolution (paper §5.2)."""
        entry = self.files.get(path)
        if entry is None:
            self.upsert_file(snapshot)
            return
        self.write_file(path, conflicts=entry.conflicts + [snapshot])
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
        leftovers = entry.conflicts
        if keep_conflict_index is None:
            self.write_file(path, conflicts=[])
        elif 0 <= keep_conflict_index < len(leftovers):
            # The promoted snapshot's pool reference carries over 1:1.
            self._ref(entry.current.segment_ids, -1)
            self.write_file(path, conflicts=[],
                            current=leftovers[keep_conflict_index])
            leftovers = (leftovers[:keep_conflict_index]
                         + leftovers[keep_conflict_index + 1:])
        else:
            return  # already applied (or never valid): nothing to do
        for leftover in leftovers:
            self._ref(leftover.segment_ids, -1)

    # -- segment pool ----------------------------------------------------

    def add_segment(self, record: SegmentRecord) -> None:
        existing = self.segments.get(record.segment_id)
        if existing is None:
            self.segments[record.segment_id] = record
            if not record._frozen:
                self._own_segments.add(record.segment_id)
            return
        # Same content chunked twice: merge placements conservatively.
        locations = {**existing.locations, **record.locations}
        # Debt is the union of both sides' unplaced indices, minus
        # anything a placement (either side's, or a scrub repay) has
        # since landed — a placed index is never owed.
        owed = (set(existing.debt) | set(record.debt)) - set(locations)
        self.write_segment(
            record.segment_id, locations=locations, debt=sorted(owed),
            block_hashes={**existing.block_hashes, **record.block_hashes},
        )

    def set_block_location(self, segment_id: str, index: int, cloud_id: str) -> None:
        """The asynchronous Cloud-ID callback after a block upload."""
        record = self.segments.get(segment_id)
        if record is None:
            raise KeyError(f"unknown segment {segment_id}")
        if not 0 <= index < record.n:
            raise IndexError(f"block index {index} outside [0, {record.n})")
        debt = list(record.debt)
        if index in debt:
            debt.remove(index)
        self.write_segment(segment_id, debt=debt,
                           locations={**record.locations, index: cloud_id})

    def garbage_segments(self) -> List[SegmentRecord]:
        """Segments no file references; their cloud blocks can be deleted."""
        return [seg for seg in self.segments.values() if seg.refcount <= 0]

    def drop_segment(self, segment_id: str) -> None:
        self.segments.pop(segment_id, None)
        self._own_segments.discard(segment_id)

    def _ref(self, segment_ids: List[str], step: int = 1) -> None:
        for segment_id in segment_ids:
            record = self.segments.get(segment_id)
            if record is not None:
                self.write_segment(segment_id,
                                   refcount=record.refcount + step)

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
        """Build an image whose records are all frozen, in canonical order."""
        image = SyncFolderImage()
        image.version = VersionStamp.from_dict(data["version"])
        image.files = {
            path: FileEntry.from_dict(entry)._freeze()
            for path, entry in data["files"].items()
        }
        image.segments = {
            sid: SegmentRecord.from_dict(seg)._freeze()
            for sid, seg in data["segments"].items()
        }
        return image

    def copy(self) -> "SyncFolderImage":
        """An image equal to ``from_dict(to_dict())`` that shares records.

        Two key-sorted dict copies.  Frozen records (canonical already)
        are shared; each record this image built or cloned goes to the
        copy as a frozen clone with ``locations`` and ``block_hashes``
        by index and ``debt`` sorted, the order ``from_dict`` gives.
        """
        image = SyncFolderImage()
        image.version = VersionStamp(self.version.counter, self.version.device)
        image.files = dict(sorted(self.files.items()))
        image.segments = dict(sorted(self.segments.items()))
        for table, owned in ((image.files, self._own_files),
                             (image.segments, self._own_segments)):
            for key in owned:
                table[key] = table[key].clone()._freeze()
        return image
