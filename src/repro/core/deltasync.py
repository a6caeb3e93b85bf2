"""Delta-sync: base + log-structured delta metadata files (paper §5.2).

The full image (*base*) is expensive to re-upload on every commit once
the folder holds many files.  Instead, each commit appends operation
records to a *delta* file; readers reconstruct the current image as
``apply(delta, base)``.  When the delta outgrows the threshold λ the
committer folds it into a new base and clears the delta.

Cloud storage offers no append primitive, so "appending" means
download-extend-upload of the delta file — still a fraction of the cost
of re-uploading the base (measured in the Figure 13 benchmark).
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..crypto import decrypt_cbc, encrypt_cbc, synthetic_iv
from ..crypto.des import BLOCK_SIZE
from .config import UniDriveConfig
from .metadata import (
    MALFORMED,
    FileSnapshot,
    MetadataError,
    SegmentRecord,
    SyncFolderImage,
    VersionStamp,
    wire_counter,
)

__all__ = [
    "DeltaLog",
    "op_upsert_file",
    "op_delete_file",
    "op_add_segment",
    "op_resolve_conflict",
    "op_set_version",
    "op_base_version",
    "base_name",
    "should_merge",
]


def op_upsert_file(snapshot: FileSnapshot) -> dict:
    return {"op": "upsert_file", "snapshot": snapshot.to_dict()}


def op_delete_file(path: str) -> dict:
    return {"op": "delete_file", "path": path}


def op_add_segment(record: SegmentRecord) -> dict:
    return {"op": "add_segment", "segment": record.to_dict()}


def op_set_version(counter: int, device: str) -> dict:
    return {"op": "set_version", "counter": counter, "device": device}


def op_base_version(counter: int, base: Optional[str] = None) -> dict:
    """Marker stamped as a fresh delta's first op at fold time.

    Records which base the log extends: its version ``counter``, so a
    reader can detect a *corrupt pair* — a cloud that missed a fold
    (stale base) but later received replicated delta appends — and its
    :func:`base_name`, so a reader that holds that base need not
    download it again.  Applying the marker is a no-op.
    """
    op = {"op": "base_version", "counter": counter}
    if base is not None:
        op["base"] = base
    return op


def base_name(blob: bytes) -> str:
    """The name a marker gives the sealed base ``blob``: its synthetic
    IV, ``HMAC-SHA1(key, plaintext)[:8]``, in hex.  Sealing is
    deterministic, so equal names mean byte-equal blobs."""
    return blob[:BLOCK_SIZE].hex()


def op_resolve_conflict(path: str, keep_conflict_index=None) -> dict:
    return {
        "op": "resolve_conflict",
        "path": path,
        "keep_conflict_index": keep_conflict_index,
    }


#: Every record kind a delta log may carry.  A commit appends its
#: segment registrations, upserts and deletes, then one ``set_version``
#: — all in the one sealed blob each replica receives, so a replica
#: holds a whole round or none of it.  Merges publish a full base
#: instead of conflict or placement records.
_KINDS = frozenset({
    "upsert_file", "delete_file", "add_segment", "resolve_conflict",
    "set_version", "base_version",
})


class DeltaLog:
    """An ordered list of metadata operations, replayable onto an image."""

    def __init__(self, ops: List[dict] = None):
        self.ops: List[dict] = list(ops) if ops else []

    def copy(self) -> "DeltaLog":
        """An independent op list."""
        return DeltaLog(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: dict) -> None:
        self.ops.append(op)

    def extend(self, ops: List[dict]) -> None:
        self.ops.extend(ops)

    def apply_to(self, image: SyncFolderImage) -> None:
        """Replay every operation, in order, onto ``image`` (in place).

        A record that does not replay raises :class:`MetadataError` and
        leaves ``image`` half-updated: replay onto a copy when the log
        came from a cloud.
        """
        try:
            for op in self.ops:
                self._apply_op(image, op)
        except MetadataError:
            raise
        except MALFORMED as exc:
            raise MetadataError(f"malformed delta record: {exc!r}") from exc

    @staticmethod
    def _apply_op(image: SyncFolderImage, op: dict) -> None:
        kind = op["op"]
        if kind == "upsert_file":
            image.upsert_file(FileSnapshot.from_dict(op["snapshot"]))
        elif kind == "delete_file":
            image.delete_file(op["path"])
        elif kind == "add_segment":
            image.add_segment(SegmentRecord.from_dict(op["segment"]))
        elif kind == "set_version":
            image.version.counter = op["counter"]
            image.version.device = op["device"]
        elif kind == "base_version":
            pass  # pair-consistency marker; carries no state
        elif kind == "resolve_conflict":
            image.resolve_conflict(
                op["path"], op.get("keep_conflict_index")
            )
        else:
            raise ValueError(f"unknown delta operation {kind!r}")

    # -- version bookkeeping ----------------------------------------------

    def latest_version(self) -> int:
        """Counter of the last version-bearing op (0 for none).

        Under the quorum lock every commit appends exactly one
        ``set_version`` record, so this is the version a reader ends at
        after replaying the log: the freshness criterion
        :meth:`UniDriveClient._publish_delta` selects deltas by.
        """
        for op in reversed(self.ops):
            if op["op"] == "set_version":
                return int(op["counter"])
        return 0

    def base_marker(self) -> int:
        """Base version this log extends (see :func:`op_base_version`).

        Returns -1 when the log carries no marker (pre-marker logs and
        the empty delta of a never-folded folder), meaning the pair
        cannot be validated and is accepted as-is.
        """
        for op in self.ops:
            if op["op"] == "base_version":
                return int(op["counter"])
        return -1

    def named_base(self) -> Optional[str]:
        """The :func:`base_name` the marker gives, or None (no marker,
        or a marker written before markers named their base)."""
        for op in self.ops:
            if op["op"] == "base_version":
                return op.get("base")
        return None

    # -- wire format -----------------------------------------------------

    def _encode(self) -> bytes:
        return "\n".join(
            json.dumps(op, sort_keys=True, separators=(",", ":"))
            for op in self.ops
        ).encode()

    def sealed_size(self) -> int:
        """``len(self.to_bytes(key))`` without running the cipher."""
        return BLOCK_SIZE * (len(self._encode()) // BLOCK_SIZE + 2)

    def to_bytes(self, key: bytes) -> bytes:
        """Encrypted JSON-lines encoding (one op per line).

        The whole log is sealed on every call, under the synthetic IV of
        the whole log: one vector pass of the cipher, about half a
        millisecond for a delta at the fold threshold.
        """
        lines = self._encode()
        return encrypt_cbc(key, lines, synthetic_iv(key, lines))

    @staticmethod
    def from_bytes(blob: bytes, key: bytes) -> "DeltaLog":
        """Decrypt and parse a delta fetched from a cloud.

        Raises :class:`MetadataError` for anything but a well-formed log
        of known record kinds.
        """
        try:
            lines = decrypt_cbc(key, blob)
            ops = [
                json.loads(line)
                for line in lines.decode().splitlines() if line
            ]
            for op in ops:
                kind = op["op"]
                if kind not in _KINDS:
                    raise ValueError(f"unknown delta operation {kind!r}")
                # The counters and base name a client compares before
                # replaying, and the stamp a replay sets, must be
                # well-typed.
                if kind == "set_version":
                    VersionStamp.from_dict(op)
                elif kind == "base_version":
                    wire_counter(op["counter"])
                    name = op.get("base", "00" * BLOCK_SIZE)
                    if (len(name) != 2 * BLOCK_SIZE
                            or bytes.fromhex(name).hex() != name):
                        raise ValueError(f"not a base name: {name!r}")
        except MALFORMED as exc:
            raise MetadataError(f"undecodable delta log: {exc!r}") from exc
        return DeltaLog(ops)


def should_merge(base_size: int, delta_size: int,
                 config: UniDriveConfig) -> bool:
    """Has the delta reached the merge threshold λ?

    λ = min(ratio * base size, absolute cap); the delta merges into the
    base as soon as it reaches whichever bound is smaller.
    """
    threshold = min(
        config.delta_merge_ratio * max(base_size, 1),
        float(config.delta_merge_bytes),
    )
    return delta_size >= threshold
