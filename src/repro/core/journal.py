"""Crash-resumable sync rounds: the client-side write-ahead journal.

A sync round uploads data blocks *before* committing metadata (paper
Algorithm 1), so a device that dies mid-round leaves blocks on clouds
that no metadata references.  Without a journal the resumed device
would re-upload everything it already transferred and leak the blocks
of any segment it no longer wants — orphans no garbage collector can
find, because they were never committed.

The journal closes both gaps with one strictly conservative rule:

* a block is recorded **after** its upload acknowledges (the Cloud-ID
  callback), so *recorded ⇒ landed* — a resumed round can credit every
  journaled block as already uploaded and transfer zero bytes for it;
* the round's planned segments are recorded **before** any upload
  starts, so every block the crashed round could possibly have landed
  belongs to a journaled segment — after the resumed round commits,
  journaled blocks that did not make it into the committed image are
  provably orphans and are deleted.

``lock_pending`` brackets the quorum-lock critical section: a device
that died while its lock files might exist on clouds withdraws them on
resume instead of making peers wait out the ΔT staleness break.

The journal is device-local state.  In the simulation it lives in
memory; :meth:`to_bytes` / :meth:`from_bytes` give it a durable wire
form so tests (and a real port) can persist it across a crash.
"""

from __future__ import annotations

import json
from typing import Dict

__all__ = ["SyncJournal"]


class SyncJournal:
    """Write-ahead journal for one device's in-flight sync round."""

    def __init__(self):
        #: True while a round is in flight (begin..commit).
        self.active = False
        #: Image version the in-flight round started from.  A resumed
        #: round starting from the same base continues the journal; a
        #: different base means the crashed round's work was superseded.
        self.base_version = 0
        #: segment_id -> {block index: cloud_id} of acknowledged uploads.
        self.blocks: Dict[str, Dict[int, str]] = {}
        #: segment_id -> {"size", "n", "k"} for every segment the round
        #: planned to upload (needed to name orphan block files).
        self.segments: Dict[str, Dict[str, int]] = {}
        #: True while this device's quorum-lock files may exist on
        #: clouds (set before acquire, cleared after release).
        self.lock_pending = False

    # -- round lifecycle ----------------------------------------------------

    def begin(self, base_version: int, records) -> None:
        """Open a round: note the planned segments before uploads start.

        Recorded blocks are never cleared here — only :meth:`commit`
        retires them.  A resume (same or newer base) therefore keeps
        every acknowledged block: each one either ends up referenced by
        the committed image or is swept as an orphan at commit time.
        """
        self.active = True
        self.base_version = base_version
        for record in records:
            self.segments.setdefault(
                record.segment_id,
                {"size": record.size, "n": record.n, "k": record.k},
            )

    def record_block(self, segment_id: str, index: int,
                     cloud_id: str) -> None:
        """The upload acknowledged: remember where the block landed."""
        self.blocks.setdefault(segment_id, {})[index] = cloud_id

    def mark_lock(self, pending: bool) -> None:
        self.lock_pending = pending

    def commit(self) -> None:
        """The round's metadata committed (and orphans were swept)."""
        self.active = False
        self.blocks = {}
        self.segments = {}
        self.lock_pending = False

    # -- resume queries -----------------------------------------------------

    @property
    def dirty(self) -> bool:
        """Anything on clouds that metadata does not account for?"""
        return self.active and bool(self.blocks or self.lock_pending)

    def resume_map(self) -> Dict[str, Dict[int, str]]:
        """Copy of the journaled placements, for scheduler preseeding."""
        return {sid: dict(placed) for sid, placed in self.blocks.items()}

    def orphan_blocks(self, image) -> Dict[str, Dict[int, str]]:
        """Journaled blocks the committed ``image`` does not reference.

        A journaled block is legitimate iff the committed image holds
        its segment *and* maps its index to the cloud the journal says
        it landed on; everything else is an orphan to delete.
        """
        orphans: Dict[str, Dict[int, str]] = {}
        for segment_id, placed in self.blocks.items():
            record = image.segments.get(segment_id)
            for index, cloud_id in placed.items():
                if (record is not None
                        and record.locations.get(index) == cloud_id):
                    continue
                orphans.setdefault(segment_id, {})[index] = cloud_id
        return orphans

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        return json.dumps(
            {
                "active": self.active,
                "base_version": self.base_version,
                "lock_pending": self.lock_pending,
                "blocks": {
                    sid: {str(i): c for i, c in sorted(placed.items())}
                    for sid, placed in sorted(self.blocks.items())
                },
                "segments": {
                    sid: dict(info)
                    for sid, info in sorted(self.segments.items())
                },
            },
            sort_keys=True,
        ).encode()

    @staticmethod
    def from_bytes(blob: bytes) -> "SyncJournal":
        data = json.loads(blob.decode())
        journal = SyncJournal()
        journal.active = bool(data.get("active", False))
        journal.base_version = int(data.get("base_version", 0))
        journal.lock_pending = bool(data.get("lock_pending", False))
        journal.blocks = {
            sid: {int(i): c for i, c in placed.items()}
            for sid, placed in data.get("blocks", {}).items()
        }
        journal.segments = {
            sid: {key: int(value) for key, value in info.items()}
            for sid, info in data.get("segments", {}).items()
        }
        return journal
