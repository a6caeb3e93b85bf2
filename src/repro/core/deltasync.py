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

import hashlib
import json
from typing import List, Optional, Tuple

from ..crypto import decrypt_cbc, encrypt_cbc
from ..crypto.des import BLOCK_SIZE
from .config import UniDriveConfig
from .metadata import (
    MALFORMED,
    FileSnapshot,
    MetadataError,
    SegmentRecord,
    SyncFolderImage,
)

__all__ = [
    "DeltaLog",
    "op_upsert_file",
    "op_delete_file",
    "op_add_conflict",
    "op_add_segment",
    "op_set_location",
    "op_drop_segment",
    "op_resolve_conflict",
    "op_set_version",
    "op_base_version",
    "op_txn_round",
    "should_merge",
]


def op_upsert_file(snapshot: FileSnapshot) -> dict:
    return {"op": "upsert_file", "snapshot": snapshot.to_dict()}


def op_delete_file(path: str) -> dict:
    return {"op": "delete_file", "path": path}


def op_add_conflict(path: str, snapshot: FileSnapshot) -> dict:
    return {"op": "add_conflict", "path": path, "snapshot": snapshot.to_dict()}


def op_add_segment(record: SegmentRecord) -> dict:
    return {"op": "add_segment", "segment": record.to_dict()}


def op_set_location(segment_id: str, index: int, cloud_id: str) -> dict:
    return {
        "op": "set_location",
        "segment_id": segment_id,
        "index": index,
        "cloud_id": cloud_id,
    }


def op_drop_segment(segment_id: str) -> dict:
    return {"op": "drop_segment", "segment_id": segment_id}


def op_set_version(counter: int, device: str) -> dict:
    return {"op": "set_version", "counter": counter, "device": device}


def op_base_version(counter: int) -> dict:
    """Marker stamped as a fresh delta's first op at fold time.

    Records which base version the log extends, so a reader can detect
    a *corrupt pair* — a cloud that missed a fold (stale base) but later
    received replicated delta appends.  Applying the marker is a no-op.
    """
    return {"op": "base_version", "counter": counter}


def op_resolve_conflict(path: str, keep_conflict_index=None) -> dict:
    return {
        "op": "resolve_conflict",
        "path": path,
        "keep_conflict_index": keep_conflict_index,
    }


def op_txn_round(round_id: str, counter: int, device: str,
                 ops: List[dict]) -> dict:
    """One sync round's operations as a single all-or-nothing record.

    Under ``UniDriveConfig.transactional_rounds`` the committer wraps
    the whole round — segment registrations, upserts, deletes — into
    one record carrying the round's version stamp, instead of appending
    the ops individually.  The record is the commit marker: a reader
    either replays the entire round (ops then version bump) or, if the
    record never reached its replica, none of it.  ``round_id``
    (``device:counter``) makes replay idempotent when a crash-resumed
    publish lands the same round in a log twice.
    """
    return {
        "op": "txn_round",
        "round_id": round_id,
        "counter": counter,
        "device": device,
        "ops": list(ops),
    }


class DeltaLog:
    """An ordered list of metadata operations, replayable onto an image."""

    def __init__(self, ops: List[dict] = None):
        self.ops: List[dict] = list(ops) if ops else []
        #: ``(key, plaintext, blob)`` of the last seal or unseal, so the
        #: next :meth:`to_bytes` re-encrypts only what an append changed.
        self._sealed: Optional[Tuple[bytes, bytes, bytes]] = None

    def copy(self) -> "DeltaLog":
        """An independent op list that still remembers the last seal."""
        twin = DeltaLog(self.ops)
        twin._sealed = self._sealed
        return twin

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: dict) -> None:
        self.ops.append(op)

    def extend(self, ops: List[dict]) -> None:
        self.ops.extend(ops)

    def clear(self) -> None:
        self.ops.clear()

    def apply_to(self, image: SyncFolderImage) -> None:
        """Replay every operation, in order, onto ``image`` (in place).

        A record that does not replay raises :class:`MetadataError` and
        leaves ``image`` half-updated: replay onto a copy when the log
        came from a cloud.
        """
        seen_rounds: set = set()
        try:
            for op in self.ops:
                self._apply_op(image, op, seen_rounds)
        except MetadataError:
            raise
        except MALFORMED as exc:
            raise MetadataError(f"malformed delta record: {exc!r}") from exc

    def _apply_op(self, image: SyncFolderImage, op: dict,
                  seen_rounds: set) -> None:
        kind = op["op"]
        if kind == "txn_round":
            # All-or-nothing round: replay its ops then its version
            # stamp.  A round already replayed in this pass (duplicated
            # by a crash-resumed publish) is skipped wholesale.
            round_id = op["round_id"]
            if round_id in seen_rounds:
                return
            seen_rounds.add(round_id)
            for inner in op["ops"]:
                if inner["op"] == "txn_round":
                    raise ValueError("txn_round records do not nest")
                self._apply_op(image, inner, seen_rounds)
            image.version.counter = op["counter"]
            image.version.device = op["device"]
        elif kind == "upsert_file":
            image.upsert_file(FileSnapshot.from_dict(op["snapshot"]))
        elif kind == "delete_file":
            image.delete_file(op["path"])
        elif kind == "add_conflict":
            image.add_conflict(
                op["path"], FileSnapshot.from_dict(op["snapshot"])
            )
        elif kind == "add_segment":
            image.add_segment(SegmentRecord.from_dict(op["segment"]))
        elif kind == "set_location":
            image.set_block_location(
                op["segment_id"], op["index"], op["cloud_id"]
            )
        elif kind == "drop_segment":
            image.drop_segment(op["segment_id"])
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
        version-bearing record — ``set_version``, or a ``txn_round``
        carrying its stamp inline — so this is the version a reader
        ends at after replaying the log: the freshness criterion
        :meth:`UniDriveClient._publish_delta` selects deltas by.
        """
        for op in reversed(self.ops):
            if op["op"] in ("set_version", "txn_round"):
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

        The IV is the digest of the *first record* alone — in a cloud
        delta, the ``base_version`` marker, which changes at every fold
        and never in between.  Appending records therefore leaves every
        ciphertext block before the old final one as it was, and a log
        that remembers its last seal (it came from :meth:`from_bytes`,
        or was sealed before) encrypts only from that block on, chained
        off the previous ciphertext block.  The bytes are exactly those
        of sealing from scratch, and any reader decrypts them statelessly.
        """
        lines = self._encode()
        iv = hashlib.sha1(lines.partition(b"\n")[0]).digest()[:BLOCK_SIZE]
        key = bytes(key)
        head = iv  # the blob up to the first block that must be encrypted
        if self._sealed is not None and self._sealed[0] == key:
            _, old_lines, old_blob = self._sealed
            # The old final block held padding, so it always changes.
            stable = len(old_lines) // BLOCK_SIZE * BLOCK_SIZE
            if (old_blob[:BLOCK_SIZE] == iv
                    and lines.startswith(old_lines[:stable])):
                head = old_blob[:BLOCK_SIZE + stable]
        tail = encrypt_cbc(
            key, lines[len(head) - BLOCK_SIZE:], head[-BLOCK_SIZE:]
        )
        blob = head + tail[BLOCK_SIZE:]
        self._sealed = (key, lines, blob)
        return blob

    @staticmethod
    def from_bytes(blob: bytes, key: bytes) -> "DeltaLog":
        """Decrypt and parse a delta fetched from a cloud.

        Raises :class:`MetadataError` for anything but a well-formed log.
        """
        try:
            lines = decrypt_cbc(key, blob)
            ops = [
                json.loads(line)
                for line in lines.decode().splitlines() if line
            ]
            for op in ops:
                if not isinstance(op["op"], str):
                    raise TypeError(f"operation name {op['op']!r}")
            log = DeltaLog(ops)
            # The two counters a client reads before replaying must parse.
            log.base_marker()
            log.latest_version()
        except MALFORMED as exc:
            raise MetadataError(f"undecodable delta log: {exc!r}") from exc
        log._sealed = (bytes(key), lines, bytes(blob))
        return log


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
