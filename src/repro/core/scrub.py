"""Durability & self-healing: integrity scrubbing and repair (paper §6.2).

Erasure coding makes data *survivable*; it does not make it *durable*
by itself.  Blocks rot silently, providers lose objects, and a cloud
can disappear for good — none of which the sync protocol notices until
a download fails.  The :class:`Scrubber` closes that gap with an
explicit audit → repair cycle driven entirely by the committed
metadata image:

* :meth:`audit` lists every cloud's block directory and compares it
  against the image — blocks the metadata references but the cloud
  does not hold are **missing**; stored blocks whose size (shallow) or
  content hash (deep) disagrees with the record are **corrupt**; stored
  blocks no record references are **orphaned**;
* :meth:`repair` deletes the orphans and, for every damaged segment,
  reconstructs the original content from any ``k`` surviving verified
  blocks, re-encodes exactly the damaged indices (blocks are
  deterministic functions of ``(content, index)``), and re-uploads them
  to the placement the metadata already records — no metadata commit
  is needed, the clouds are simply healed back to the image;
* :meth:`decommission` / :meth:`integrate` handle full membership
  changes — a cloud leaving (gracefully, or *lost* with its data) and
  a cloud joining — by rebalancing every segment's placement and
  committing the new image.

Scrubbing assumes a quiescent folder (no sync round in flight), like
the membership operations: a concurrent uploader's not-yet-committed
blocks would look orphaned.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cloud import CloudAPI, CloudError, NotFoundError
from ..obs import OBS
from .client import SyncError
from .lock import QuorumLock
from .pipeline import block_hash
from .placement import (
    max_blocks_per_cloud,
    rebalance_on_add,
    rebalance_on_remove,
)
from .util import gather_safe

__all__ = ["Scrubber", "ScrubReport", "RepairReport"]


@dataclass
class ScrubReport:
    """What one audit pass found, cloud state vs the metadata image."""

    started_at: float
    deep: bool
    finished_at: float = 0.0
    #: (segment_id, block index, cloud_id) the image references but the
    #: cloud does not hold.
    missing: List[Tuple[str, int, str]] = field(default_factory=list)
    #: (segment_id, block index, cloud_id) held but failing the size
    #: check (shallow) or the content-hash check (deep).
    corrupt: List[Tuple[str, int, str]] = field(default_factory=list)
    #: cloud_id -> block-file paths no segment record references.
    orphaned: Dict[str, List[str]] = field(default_factory=dict)
    #: Clouds whose block listing failed; their blocks are *not*
    #: reported missing (absence of evidence).
    unreachable: List[str] = field(default_factory=list)
    segments_checked: int = 0
    blocks_checked: int = 0

    @property
    def orphan_count(self) -> int:
        return sum(len(paths) for paths in self.orphaned.values())

    @property
    def clean(self) -> bool:
        return not (self.missing or self.corrupt or self.orphaned)

    def to_dict(self) -> dict:
        return {
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deep": self.deep,
            "segments_checked": self.segments_checked,
            "blocks_checked": self.blocks_checked,
            "missing": [list(item) for item in sorted(self.missing)],
            "corrupt": [list(item) for item in sorted(self.corrupt)],
            "orphaned": {
                cloud: sorted(paths)
                for cloud, paths in sorted(self.orphaned.items())
            },
            "unreachable": sorted(self.unreachable),
            "clean": self.clean,
        }


@dataclass
class RepairReport:
    """What one repair pass did about a :class:`ScrubReport`."""

    started_at: float
    finished_at: float = 0.0
    #: (segment_id, block index, cloud_id) re-encoded and re-placed.
    repaired: List[Tuple[str, int, str]] = field(default_factory=list)
    orphans_deleted: int = 0
    #: Segments with fewer than k verified surviving blocks — data loss.
    unrecoverable: List[str] = field(default_factory=list)

    @property
    def blocks_repaired(self) -> int:
        return len(self.repaired)

    def to_dict(self) -> dict:
        return {
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "blocks_repaired": self.blocks_repaired,
            "repaired": [list(item) for item in sorted(self.repaired)],
            "orphans_deleted": self.orphans_deleted,
            "unrecoverable": sorted(self.unrecoverable),
        }


class Scrubber:
    """Audit/repair engine bound to one client's view of the folder."""

    def __init__(self, client):
        self.client = client

    # -- audit -------------------------------------------------------------

    def audit(self, deep: bool = False):
        """Compare every cloud's block directory against the image.

        Shallow (default) audits compare listings and sizes only — one
        ``list_folder`` per cloud, no block downloads.  ``deep`` also
        downloads every referenced block and verifies its content hash,
        catching rot that preserves the size (which
        ``ObjectStore.corrupt`` — and real bit rot — does).
        """
        client = self.client
        report = ScrubReport(started_at=client.sim.now, deep=deep)
        listings: Dict[str, Dict[str, object]] = {}
        outcomes = yield from gather_safe(
            client.sim,
            [self._list_blocks(conn) for conn in client.connections],
        )
        for conn, (ok, entries) in zip(client.connections, outcomes):
            if not ok:
                report.unreachable.append(conn.cloud_id)
                continue
            listings[conn.cloud_id] = {
                entry.name: entry for entry in entries if not entry.is_folder
            }
        referenced: Dict[str, set] = {cid: set() for cid in listings}
        for segment_id in sorted(client.image.segments):
            record = client.image.segments[segment_id]
            if not record.locations:
                continue
            report.segments_checked += 1
            expected_size = client.pipeline.block_size(record)
            deep_pending: List[Tuple[int, str]] = []
            for index in sorted(record.locations):
                cloud_id = record.locations[index]
                name = posixpath.basename(
                    client.pipeline.block_path(segment_id, index)
                )
                referenced.setdefault(cloud_id, set()).add(name)
                held = listings.get(cloud_id)
                if held is None:
                    continue  # unreachable cloud: no evidence either way
                report.blocks_checked += 1
                entry = held.get(name)
                if entry is None:
                    report.missing.append((segment_id, index, cloud_id))
                    continue
                if entry.size != expected_size:
                    report.corrupt.append((segment_id, index, cloud_id))
                    if OBS.enabled:
                        OBS.corrupt_detected(
                            cloud_id, client.sim.now, segment_id, index
                        )
                    continue
                if deep:
                    deep_pending.append((index, cloud_id))
            if deep_pending:
                _blocks, missing, corrupt = yield from client._fetch_blocks(
                    record, len(deep_pending), client.connections,
                    deep_pending,
                )
                report.missing += missing
                report.corrupt += corrupt
        for cloud_id, held in sorted(listings.items()):
            known = referenced.get(cloud_id, set())
            orphans = sorted(
                entry.path for name, entry in held.items()
                if name not in known
            )
            if orphans:
                report.orphaned[cloud_id] = orphans
        report.finished_at = client.sim.now
        return report

    def _list_blocks(self, conn: CloudAPI):
        """One cloud's block listing; a missing folder is just empty."""
        try:
            entries = yield from conn.list_folder(
                self.client.config.blocks_dir
            )
        except NotFoundError:
            return []
        return entries

    # -- repair ------------------------------------------------------------

    def repair(self, report: ScrubReport):
        """Heal the clouds back to the metadata image.

        Orphans are deleted; every damaged segment is decoded from any
        ``k`` surviving verified blocks, the damaged indices re-encoded
        (blocks are deterministic in ``(content, index)``) and uploaded
        to the cloud the image already records for them.  Corrupt
        survivors cannot poison the decode: fetches verify content
        hashes and treat mismatches as unreachable.
        """
        client = self.client
        out = RepairReport(started_at=client.sim.now)
        out.orphans_deleted = yield from client._delete_blocks(
            (cloud_id, path)
            for cloud_id, paths in sorted(report.orphaned.items())
            for path in paths
        )
        if out.orphans_deleted and OBS.enabled:
            OBS.inc("orphans_swept", out.orphans_deleted,
                    device=client.device)
        damaged: Dict[str, List[Tuple[int, str]]] = {}
        for segment_id, index, cloud_id in report.missing + report.corrupt:
            damaged.setdefault(segment_id, []).append((index, cloud_id))
        for segment_id in sorted(damaged):
            record = client.image.segments.get(segment_id)
            if record is None:
                continue
            span = None
            if OBS.enabled:
                span, _ = OBS.begin(
                    "repair", t=client.sim.now, track=client.device,
                    seg=segment_id[:12], blocks=len(damaged[segment_id]),
                )
            try:
                put = yield from self._reencode(record, client.connections)
            except SyncError:
                out.unrecoverable.append(segment_id)
                if span is not None:
                    OBS.end(span, t=client.sim.now, error="unrecoverable")
                continue
            for index, cloud_id in sorted(set(damaged[segment_id])):
                conn = client._connection(cloud_id)
                if conn is None:
                    continue
                try:
                    yield from put(conn, index)
                except CloudError:
                    continue  # still damaged; a later scrub retries
                out.repaired.append((segment_id, index, cloud_id))
                if OBS.enabled:
                    OBS.inc("blocks_repaired", cloud=cloud_id)
            if span is not None:
                OBS.end(span, t=client.sim.now,
                        repaired=len(damaged[segment_id]))
        out.finished_at = client.sim.now
        return out

    def _reencode(self, record, connections):
        """Decode ``record`` from any ``k`` verified blocks fetched over
        ``connections``; returns ``put(conn, index)``, which uploads the
        re-encoded block ``index`` to ``conn`` after noting its
        fingerprint (blocks are deterministic in ``(content, index)``).
        Raises :class:`SyncError` when fewer than ``k`` blocks verify."""
        client = self.client
        blocks, _missing, _corrupt = yield from client._fetch_blocks(
            record, record.k, connections
        )
        if len(blocks) < record.k:
            raise SyncError(
                f"{client.device}: only {len(blocks)}/{record.k} blocks "
                f"of {record.segment_id} reachable"
            )
        content = client.pipeline.decode_segment(record, blocks)
        state = client.pipeline.encode_state(record.segment_id, content)

        def put(conn, index):
            block = state.block(index)
            self._note_hash(record.segment_id, index, block)
            yield from conn.upload(
                client.pipeline.block_path(record.segment_id, index), block
            )

        return put

    def _note_hash(self, segment_id: str, index: int, block) -> None:
        """Record a re-encoded block's fingerprint unless one is known."""
        hashes = self.client.image.segments[segment_id].block_hashes
        if index not in hashes:
            self.client.image.write_segment(
                segment_id, block_hashes={**hashes, index: block_hash(block)})

    # -- redundancy debt (brownout commits) --------------------------------

    def owed_segments(self) -> List[str]:
        """Segments carrying redundancy debt, in deterministic order."""
        return sorted(
            sid for sid, record in self.client.image.segments.items()
            if record.debt and record.refcount > 0
        )

    def _debt_target(self, record) -> Optional[str]:
        """Pick the cloud to place one owed block on.

        Deterministic: the admitted cloud holding the fewest blocks of
        this segment (sorted-id tie-break), respecting the security cap
        on blocks per cloud.  After a brownout that starved exactly one
        cloud, that cloud holds zero blocks and wins — repayment
        restores the original fair-share placement exactly.  ``None``
        when no admitted cloud has room (e.g. breakers still open):
        the debt stays recorded for a later pass.
        """
        client = self.client
        degrade = getattr(client, "degrade", None)
        counts = {c.cloud_id: 0 for c in client.connections}
        for cloud in record.locations.values():
            if cloud in counts:
                counts[cloud] += 1
        cap = max_blocks_per_cloud(record.k, client.config.k_security)
        best = None
        for cloud_id in sorted(counts):
            if counts[cloud_id] >= cap:
                continue
            if degrade is not None and not degrade.admits(
                cloud_id, client.sim.now
            ):
                continue
            if best is None or counts[cloud_id] < counts[best]:
                best = cloud_id
        return best

    def repay_debt(self, commit: bool = True):
        """Repay redundancy debt left behind by brownout commits.

        For every segment owing indices, the content is decoded from
        any ``k`` verified blocks, exactly the owed indices re-encoded
        (blocks are deterministic in ``(content, index)``), and each
        placed via :meth:`_debt_target`.  Repaid indices leave the debt
        list through ``set_block_location``; with ``commit`` the
        updated image is republished so every device sees the restored
        placement.  Idempotent: an image with no debt is a no-op, and
        re-running after a partial repayment only touches the
        still-owed indices.

        Returns a :class:`RepairReport` (repaid blocks in
        ``repaired``).
        """
        client = self.client
        degrade = getattr(client, "degrade", None)
        out = RepairReport(started_at=client.sim.now)
        repaid_any = False
        for segment_id in self.owed_segments():
            record = client.image.segments[segment_id]
            span = None
            if OBS.enabled:
                span, _ = OBS.begin(
                    "repair", t=client.sim.now, track=client.device,
                    kind="debt", seg=segment_id[:12],
                    owed=len(record.debt),
                )
            try:
                put = yield from self._reencode(record, client.connections)
            except SyncError:
                out.unrecoverable.append(segment_id)
                if span is not None:
                    OBS.end(span, t=client.sim.now, error="unrecoverable")
                continue
            for index in sorted(record.debt):
                target = self._debt_target(record)
                if target is None:
                    continue  # nowhere admitted to place it; later pass
                conn = client._connection(target)
                if conn is None:
                    continue
                if degrade is not None:
                    degrade.note_dispatch(target, client.sim.now)
                try:
                    yield from put(conn, index)
                except CloudError:
                    if degrade is not None:
                        degrade.on_failure(target, client.sim.now)
                    continue  # still owed; a later pass retries
                if degrade is not None:
                    degrade.on_success(target, client.sim.now)
                client.image.set_block_location(segment_id, index, target)
                record = client.image.segments[segment_id]  # maybe a clone
                out.repaired.append((segment_id, index, target))
                repaid_any = True
                if OBS.enabled:
                    OBS.inc("debt_repaid", cloud=target)
            if OBS.enabled:
                OBS.debt_remaining(
                    span, client.sim.now, segment_id, len(record.debt)
                )
        if commit and repaid_any:
            yield from client._commit_rebalanced_image()
        out.finished_at = client.sim.now
        return out

    def scrub_round(self, deep: bool = False, repair: bool = True):
        """One audit pass, optionally followed by a repair pass.

        When segments carry redundancy debt (brownout commits), the
        repair phase also runs :meth:`repay_debt`, folding its results
        into the returned report.  Returns
        ``(ScrubReport, RepairReport | None)``.
        """
        span = None
        if OBS.enabled:
            span, _ = OBS.begin(
                "scrub_round", t=self.client.sim.now,
                track=self.client.device, deep=deep,
            )
        audit = yield from self.audit(deep=deep)
        fixed: Optional[RepairReport] = None
        if repair and not audit.clean:
            fixed = yield from self.repair(audit)
        if repair and self.owed_segments():
            debt_fixed = yield from self.repay_debt()
            if fixed is None:
                fixed = debt_fixed
            else:
                fixed.repaired.extend(debt_fixed.repaired)
                fixed.unrecoverable.extend(debt_fixed.unrecoverable)
                fixed.finished_at = debt_fixed.finished_at
        if OBS.enabled:
            OBS.scrub_round_done(
                span, self.client.device, self.client.sim.now,
                missing=len(audit.missing), corrupt=len(audit.corrupt),
                orphans=audit.orphan_count,
                repaired=fixed.blocks_repaired if fixed else 0,
            )
        return audit, fixed

    # -- cloud membership --------------------------------------------------

    def decommission(self, cloud_id: str, wipe: bool = True):
        """Remove a cloud from the folder, restoring full fair share.

        Works for both planned removal (``wipe=True``: the departing
        provider is reachable and its block/metadata/lock directories
        are scrubbed on the way out) and **permanent loss**
        (``wipe=False``: the provider and its data are simply gone —
        every block it held is re-encoded from the survivors).  Either
        way each segment's placement is rebalanced over the remaining
        clouds, moved blocks are re-encoded from any ``k`` verified
        survivors, and the new image is committed under the (new,
        survivor-only) quorum lock.
        """
        client = self.client
        remaining = [
            c for c in client.connections if c.cloud_id != cloud_id
        ]
        if not remaining:
            raise ValueError("cannot remove the last cloud")
        if len(remaining) == len(client.connections):
            raise ValueError(f"{cloud_id} is not an enrolled cloud")
        client.config.validate(len(remaining))
        span = None
        if OBS.enabled:
            span, _ = OBS.begin(
                "repair", t=client.sim.now, track=client.device,
                kind="decommission", cloud=cloud_id,
            )
        # Shed over-provisioned extras first so the survivors only have
        # to absorb the fair-share minimum.
        yield from client.gc_over_provisioned()
        remaining_ids = [c.cloud_id for c in remaining]
        moved_total = 0
        for segment_id in sorted(client.image.segments):
            record = client.image.segments[segment_id]
            if not record.locations:
                continue
            new_locations = rebalance_on_remove(
                record.locations, cloud_id, remaining_ids,
                record.k, client.config.k_reliability,
                client.config.k_security,
            )
            moves = [
                (index, target)
                for index, target in sorted(new_locations.items())
                if record.locations.get(index) != target
            ]
            if moves:
                # Any k verified blocks from the survivors reconstruct
                # the segment; the departed cloud is already excluded.
                put = yield from self._reencode(record, remaining)
                for index, target in moves:
                    yield from put(client._connection(target), index)
                    moved_total += 1
                    if OBS.enabled:
                        OBS.inc("blocks_repaired", cloud=target)
            client.image.write_segment(segment_id, locations=new_locations)
        if wipe:
            departing = client._connection(cloud_id)
            if departing is not None:
                yield from gather_safe(
                    client.sim,
                    [
                        departing.delete(client.config.blocks_dir),
                        departing.delete(client.config.meta_dir),
                        departing.delete(client.config.lock_dir),
                    ],
                )
        client.connections = remaining
        client.lock = QuorumLock(
            client.sim, client.connections, client.device,
            client.config, client.rng,
        )
        yield from client._commit_rebalanced_image()
        if span is not None:
            OBS.end(span, t=client.sim.now, moved=moved_total)

    def integrate(self, connection: CloudAPI):
        """Enroll a new cloud: it adopts its fair share of every segment.

        Blocks move from clouds holding more than their fair share; when
        every survivor is already at the minimum, fresh parity indices
        are minted for the new cloud instead (the non-systematic code
        produces any index < n), so no donor ever drops below fair
        share.
        """
        client = self.client
        all_connections = client.connections + [connection]
        client.config.validate(len(all_connections))
        all_ids = [c.cloud_id for c in all_connections]
        span = None
        if OBS.enabled:
            span, _ = OBS.begin(
                "repair", t=client.sim.now, track=client.device,
                kind="integrate", cloud=connection.cloud_id,
            )
        adopted_total = 0
        for segment_id in sorted(client.image.segments):
            record = client.image.segments[segment_id]
            if not record.locations:
                continue
            old_locations = dict(record.locations)
            new_locations = rebalance_on_add(
                old_locations, connection.cloud_id, all_ids,
                record.k, client.config.k_reliability, n=record.n,
            )
            adopted = [
                index for index, cloud in new_locations.items()
                if cloud == connection.cloud_id
                and old_locations.get(index) != connection.cloud_id
            ]
            if adopted:
                put = yield from self._reencode(record, client.connections)
                for index in sorted(adopted):
                    yield from put(connection, index)
                    adopted_total += 1
                    donor = old_locations.get(index)
                    donor_conn = (
                        client._connection(donor)
                        if donor is not None else None
                    )
                    if donor_conn is not None:
                        yield from donor_conn.delete(
                            client.pipeline.block_path(segment_id, index)
                        )
            client.image.write_segment(segment_id, locations=new_locations)
        client.connections = all_connections
        client.lock = QuorumLock(
            client.sim, client.connections, client.device,
            client.config, client.rng,
        )
        yield from client._commit_rebalanced_image()
        if span is not None:
            OBS.end(span, t=client.sim.now, adopted=adopted_total)
