"""The UniDrive client: multi-cloud multi-device file synchronization.

One :class:`UniDriveClient` instance is one device.  It owns

* a local sync folder (any :mod:`repro.fsmodel` filesystem),
* one :class:`~repro.cloud.CloudAPI` connection per enrolled cloud,
* the last-synchronized metadata image ``v_o`` (the merge base),
* a :class:`~repro.core.lock.QuorumLock` for serialized commits.

:meth:`sync` is Algorithm 1 from the paper wrapped around the data
plane: data blocks always travel *before* metadata commits, commits are
serialized by the quorum lock, cloud updates are detected through the
tiny version file, and concurrent edits merge three-way with conflict
copies retained.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cloud import CloudAPI, CloudError, NotFoundError
from ..fsmodel import ChangeKind, FolderWatcher
from ..obs import OBS
from ..simkernel import Interrupt, Simulator
from .config import UniDriveConfig
from .degrade import DegradeController
from .deltasync import (
    DeltaLog,
    base_name,
    op_add_segment,
    op_base_version,
    op_delete_file,
    op_resolve_conflict,
    op_set_version,
    op_upsert_file,
    should_merge,
)
from .journal import SyncJournal
from .lock import LockTimeout, QuorumLock
from .merge import (
    MergePolicy,
    diff_images,
    merge_images,
    recompute_refcounts,
)
from .metadata import (
    FileSnapshot,
    MetadataError,
    SegmentRecord,
    SyncFolderImage,
    VersionStamp,
)
from .pipeline import BlockPipeline, block_hash_many
from .placement import fair_share, normal_block_count
from .probing import DOWNLOAD, ThroughputEstimator
from .retry import RetryPolicy
from .scheduler import (
    DownloadScheduler,
    FileDownload,
    FileUpload,
    UploadScheduler,
)
from .serialization import (
    deserialize_heartbeat,
    deserialize_image,
    deserialize_version,
    serialize_heartbeat,
    serialize_image,
    serialize_version,
)
from .util import gather_safe

__all__ = ["UniDriveClient", "SyncReport", "SyncError"]


class SyncError(Exception):
    """A sync round could not complete (e.g. metadata quorum failed)."""


def _reaches(delta: DeltaLog) -> int:
    """The version a base + ``delta`` pair reconstructs."""
    return max(delta.latest_version(), delta.base_marker(), 0)


@dataclass
class SyncReport:
    """What one :meth:`UniDriveClient.sync` round did."""

    device: str
    started_at: float
    finished_at: float = 0.0
    uploaded_files: List[str] = field(default_factory=list)
    downloaded_files: List[str] = field(default_factory=list)
    deleted_files: List[str] = field(default_factory=list)
    conflicts: List[str] = field(default_factory=list)
    upload_report: Optional[object] = None
    download_report: Optional[object] = None
    committed_version: Optional[int] = None
    #: Paths the image lists that this device could not download yet
    #: (too few blocks reachable); a later round retries them.
    unfetched: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def changed_anything(self) -> bool:
        return bool(
            self.uploaded_files
            or self.downloaded_files
            or self.deleted_files
            or self.conflicts
        )


class UniDriveClient:
    """One device running UniDrive against N cloud connections."""

    def __init__(
        self,
        sim: Simulator,
        device: str,
        filesystem,
        connections: Sequence[CloudAPI],
        config: Optional[UniDriveConfig] = None,
        rng: Optional[np.random.Generator] = None,
        estimator: Optional[ThroughputEstimator] = None,
        journal: Optional[SyncJournal] = None,
        conflict_resolver=None,
    ):
        self.sim = sim
        self.device = device
        self.fs = filesystem
        self.connections = list(connections)
        self.config = config or UniDriveConfig()
        self.config.validate(len(self.connections))
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.estimator = estimator or ThroughputEstimator()
        #: Unified failure policy for every metadata-plane request.
        self.retry = RetryPolicy()
        #: Degradation control plane: circuit breakers shared across
        #: every batch and metadata operation of this device, round
        #: deadline budgets, hedged reads and brownout writes.
        self.degrade = DegradeController(self.config)
        #: The in-flight round's DeadlineBudget (None when unbounded
        #: or outside a round).
        self._budget = None
        #: Lifetime hedged-read tallies across download batches.
        self.hedges_fired = 0
        self.hedged_bytes = 0
        self.pipeline = BlockPipeline(self.config, len(self.connections))
        self.lock = QuorumLock(
            sim, self.connections, device, self.config, self.rng
        )
        # Deliberately not primed: files already in the folder when the
        # client starts are *pending changes* until the first sync's
        # bootstrap reconciles them against the cloud image.
        self.watcher = FolderWatcher(filesystem)
        #: How divergent concurrent edits reconcile (see core.merge).
        #: The policy name comes from config so every device on a folder
        #: shares it; ``conflict_resolver`` supplies the callback the
        #: "per-path" policy requires (and must be the same pure
        #: function on every device).
        self.merge_policy = MergePolicy(
            self.config.conflict_policy, conflict_resolver
        )
        #: v_o — the image both this device and the cloud agreed on last.
        self.image = SyncFolderImage(device)
        self._pending_changes: Dict[str, ChangeKind] = {}
        self._pending_fetch: set = set()
        # Per-cloud version counters from the most recent poll
        # (_check_cloud_update); metadata reads try replicas known to be
        # stale last, and _publish_delta extends only a *fresh* one.
        # None = unreachable, missing or undecodable at poll time.
        self._poll_counters: Dict[str, Optional[int]] = {}
        #: Set by a round that changed something; the next poll pays it.
        self._heartbeat_due = False
        #: ``(conn, (ok, delta blob or CloudError))`` a reader poll that
        #: found news downloaded beside the version files; the
        #: :meth:`_fetch_metadata` that follows uses it for ``conn``.
        self._prefetched = None
        #: This device's decoded metadata, one slot per cloud file:
        #: ``"base" -> (blob, SyncFolderImage)``, ``"delta" -> (blob,
        #: DeltaLog)``.  Keyed by the blob *bytes* this device downloaded
        #: or published — never by a version stamp, which an untrusted
        #: cloud could pair with other bytes — so a hit is exactly "I
        #: have decoded these bytes before".  Volatile, never shared
        #: between devices; see :meth:`_decode`.
        self._held: Dict[str, Tuple[bytes, object]] = {}
        #: Crash-resume journal.  Pass a restored journal (see
        #: SyncJournal.from_bytes) to resume a round a previous
        #: incarnation of this device died in the middle of.
        self.journal = journal if journal is not None else SyncJournal()
        #: The upload scheduler of the round in flight (crash modelling).
        self._active_upload = None
        #: Trace-correlation context of the round in flight:
        #: ``(trace_id, parent span id)`` while tracing, else None.
        self._trace_ctx = None
        # Metadata traffic accounting (Table 3 experiments).
        self.metadata_bytes = 0
        self.block_bytes = 0

    # -- paths -------------------------------------------------------------

    @property
    def _base_path(self) -> str:
        return posixpath.join(self.config.meta_dir, "base")

    @property
    def _delta_path(self) -> str:
        return posixpath.join(self.config.meta_dir, "delta")

    @property
    def _version_path(self) -> str:
        return posixpath.join(self.config.meta_dir, "version")

    @property
    def _heartbeat_path(self) -> str:
        return posixpath.join(self.config.meta_dir, f"device_{self.device}")

    @property
    def quorum(self) -> int:
        return len(self.connections) // 2 + 1

    # -- public API -------------------------------------------------------

    def sync(self):
        """One synchronization round (Algorithm 1); returns a SyncReport."""
        report = SyncReport(device=self.device, started_at=self.sim.now)
        self._budget = self.lock.budget = self.degrade.round_budget(self.sim)
        span = None
        if OBS.enabled:
            # The round is the root of this device's causal tree: every
            # batch, block transfer, lock acquisition and netsim flow it
            # spawns carries (trace_id, parent) back to this span.
            # ``trace_id=None`` holds that attr's slot ahead of ``sid``.
            span, self._trace_ctx = OBS.begin(
                "sync_round", t=self.sim.now, track=self.device,
                ctx=None, trace_id=None,
            )
            self.lock.trace_ctx = self._trace_ctx
        meta0, blocks0 = self.metadata_bytes, self.block_bytes
        error = None
        try:
            yield from self._sync_round(report)
            report.finished_at = self.sim.now
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            if OBS.enabled:
                OBS.round_done(span, report, self.sim.now, error,
                               self.metadata_bytes - meta0,
                               self.block_bytes - blocks0)
            self._trace_ctx = self.lock.trace_ctx = None
            self._budget = self.lock.budget = None
        return report

    def _sync_round(self, report: SyncReport):
        """The body of Algorithm 1 (split out so :meth:`sync` can close
        the round's trace span on both the success and error paths)."""
        if self.journal.active and self.journal.lock_pending:
            # A previous incarnation of this device died while its lock
            # files might exist on clouds: withdraw them now instead of
            # making peers wait out the ΔT staleness break.
            yield from self.lock.cleanup()
            self.journal.mark_lock(False)
        self._collect_local_changes()
        bootstrap = self.image.version.counter == 0
        if bootstrap:
            yield from self._bootstrap(report)
        if self._pending_changes:
            yield from self._commit_local_update(report)
        elif not bootstrap:  # a bootstrap has just polled
            # After a round that brought news, the next is likely too:
            # the poll then carries the delta read.
            remote = yield from self._check_cloud_update(
                prefetch=self._heartbeat_due
            )
            if remote is not None:
                yield from self._apply_cloud_only_update(report, remote)
        if self.journal.active and not self._pending_changes:
            # Crash leftovers with no round to fold them into (the file
            # vanished before resume): every journaled block is an
            # orphan against the current image — sweep and retire.
            yield from self._journal_sweep()
        if self._pending_fetch:
            yield from self._materialize(
                self.image, sorted(self._pending_fetch), report
            )
        report.unfetched = sorted(self._pending_fetch)
        if report.changed_anything or report.committed_version is not None:
            self._heartbeat_due = True

    def run_forever(self):
        """Periodic sync loop (interval τ plus small jitter).

        Transient sync failures (no write quorum, lock timeout) are
        retried on the next round — pending changes are preserved.
        """
        while True:
            try:
                yield from self.sync()
            except (SyncError, LockTimeout):
                if self.lock.held:
                    yield from self.lock.release()
            jitter = self.rng.uniform(0, self.config.check_interval / 10)
            yield self.sim.timeout(self.config.check_interval + jitter)

    # -- first-sync bootstrap ------------------------------------------------

    def _bootstrap(self, report: SyncReport):
        """Reconcile a never-synced device with existing cloud state.

        Handles fresh installs and reinstalls over a populated folder:
        the cloud image is adopted as the merge base, local files whose
        content already matches it stop being "pending changes"
        (re-chunking proves identity — no upload), files missing locally
        are fetched, and a divergent local copy is preserved as a
        conflict file rather than silently overwritten.
        """
        remote = yield from self._check_cloud_update()
        if remote is None:
            return  # empty cloud: pending local files commit normally
        cloud_image = yield from self._fetch_metadata(expect=remote.counter)
        self.image = cloud_image
        # Adopting a version applies it, even into a folder that matches
        # (a reinstall, or a resume whose crash lost a due heartbeat).
        self._heartbeat_due = True
        to_fetch: List[str] = []
        copies: List[str] = []
        for path, entry in sorted(cloud_image.files.items()):
            if not self.fs.exists(path):
                to_fetch.append(path)
                continue
            local_segments = [
                segment.segment_id
                for segment in self.pipeline.ingest_file(
                    self.fs.read_file(path)
                )
            ]
            if local_segments == entry.current.segment_ids:
                self._pending_changes.pop(path, None)  # already in sync
            else:
                copy_path = f"{path}.conflict-{self.device}"
                self.fs.write_file(
                    copy_path, self.fs.read_file(path), mtime=self.sim.now
                )
                self._pending_changes.pop(path, None)
                self._pending_changes[copy_path] = ChangeKind.ADD
                copies.append(copy_path)
                to_fetch.append(path)
        yield from self._materialize(cloud_image, to_fetch, report, copies)

    # -- local-update path (lines 2-14 of Algorithm 1) -----------------------

    def _collect_local_changes(self) -> None:
        for change in self.watcher.poll():
            self._pending_changes[change.path] = change.kind

    def _commit_local_update(self, report: SyncReport):
        local = self.image.copy()
        committed_paths = set(self._pending_changes)
        plan = self._build_local_image(local, report)
        uploads = plan["uploads"]
        # Write-ahead: the resume map is captured from the journal a
        # crashed incarnation left behind (empty on a normal round),
        # then the round's planned segments are journaled before any
        # block travels.
        resume = self.journal.resume_map()
        self.journal.begin(self.image.version.counter, plan["new_records"])
        # Data blocks travel before any metadata becomes visible.
        if uploads:
            span = batch_ctx = None
            if OBS.enabled:
                span, batch_ctx = OBS.begin(
                    "upload_batch", t=self.sim.now, track=self.device,
                    ctx=self._trace_ctx, files=len(uploads),
                    bytes=sum(u.size for u in uploads),
                )
            scheduler = UploadScheduler(
                self.sim, self.connections, self.pipeline, self.config,
                estimator=self.estimator, retry_policy=self.retry,
                rng=self.rng,
                on_block_uploaded=self.journal.record_block,
                resume=resume,
                trace_ctx=batch_ctx, tenant=self.device,
                degrade=self.degrade, budget=self._budget,
            )
            self._active_upload = scheduler
            upload_report = yield from scheduler.run_batch(uploads)
            self._active_upload = None
            if span is not None:
                OBS.end(
                    span, t=self.sim.now,
                    failed_requests=upload_report.failed_requests,
                )
            report.upload_report = upload_report
            self.block_bytes += sum(
                int(f.size) for f in upload_report.files
            )
            unavailable = [
                f.path for f in upload_report.files if f.available_at is None
            ]
            if unavailable:
                raise SyncError(
                    f"{self.device}: blocks unavailable for {unavailable}"
                )
            self._record_debt(plan["new_records"])
        self.journal.mark_lock(True)
        try:
            yield from self.lock.acquire()
        except (LockTimeout, Interrupt):
            # acquire() withdrew its lock files before propagating, so
            # a resumed device need not clean up after this failure.  (A
            # hard kill skips both the withdraw and this line — then the
            # flag stays set and resume withdraws, as it must.)
            self.journal.mark_lock(False)
            raise
        try:
            remote = yield from self._check_cloud_update()
            if remote is not None:
                cloud_image = yield from self._fetch_metadata(
                    expect=remote.counter
                )
                result = merge_images(
                    self.image, local, cloud_image, self.merge_policy
                )
                merged = result.image
                report.conflicts.extend(result.conflicts)
                next_counter = max(
                    local.version.counter, cloud_image.version.counter
                ) + 1
                merged.version = VersionStamp(next_counter, self.device)
                yield from self._publish_base(merged)
                previous = self.image
                self.image = merged
                self._handle_conflict_copies(result.conflicts, merged)
                yield from self._materialize_diff(previous, merged, report)
            else:
                local.version = VersionStamp(
                    local.version.counter + 1, self.device
                )
                # Ops are serialized only now, after uploads filled in
                # every record's block locations (Cloud-ID callbacks).
                ops = [op_add_segment(r) for r in plan["new_records"]]
                ops += [op_upsert_file(snap) for snap in plan["upserts"]]
                ops += [op_delete_file(p) for p in plan["deletes"]]
                ops.append(op_set_version(local.version.counter, self.device))
                yield from self._publish_delta(local, ops)
                self.image = local
            report.committed_version = self.image.version.counter
        finally:
            yield from self.lock.release()
            self.journal.mark_lock(False)
        for path in committed_paths:
            self._pending_changes.pop(path, None)
        self._collect_garbage()
        yield from self._journal_sweep()

    def _record_debt(self, records: List[SegmentRecord]) -> None:
        """Brownout accounting: planned blocks that did not land become
        redundancy debt on their segment records.

        Runs after the upload batch, before the round's ops are
        serialized, so the debt travels inside the committed metadata
        and any device's scrubber can repay it once the missing cloud
        readmits traffic.  Only the *fair-share* indices count as debt:
        indices past ``fair_share * N`` are the dynamic scheduler's
        opportunistic over-provisioning pool and are legitimately
        unplaced on a healthy run.  Debt is for lost *redundancy*, never
        for lost readability: a segment with fewer than k blocks placed
        made its file unavailable, and the round already failed.
        """
        for record in records:
            normal = min(
                record.n,
                normal_block_count(
                    record.k, self.config.k_reliability,
                    len(self.connections),
                ),
            )
            missing = sorted(
                i for i in range(normal) if i not in record.locations
            )
            if not missing:
                continue
            record.write(debt=missing)
            if OBS.enabled:
                OBS.debt_recorded(
                    self.device, self.sim.now, record.segment_id,
                    len(missing),
                )

    def _build_local_image(
        self, local: SyncFolderImage, report: SyncReport
    ) -> Dict[str, list]:
        """Apply ChangedFileList to ``local``; plan block uploads."""
        uploads: List[FileUpload] = []
        new_records: List[SegmentRecord] = []
        upserts: List[FileSnapshot] = []
        deletes: List[str] = []
        for path, kind in sorted(self._pending_changes.items()):
            if kind is ChangeKind.DELETE:
                if path in local.files:
                    local.delete_file(path)
                    deletes.append(path)
                    report.deleted_files.append(path)
                continue
            try:
                content = self.fs.read_file(path)
            except FileNotFoundError:
                continue  # edited then deleted before we synced
            # Zero-copy ingest: segment views feed the encoder directly,
            # so planning uploads never duplicates the file content.
            segments = self.pipeline.ingest_file(content)
            pending_upload = []
            for segment in segments:
                existing = local.segments.get(segment.segment_id)
                if (
                    existing is not None
                    and existing.locations
                    and existing.refcount > 0
                ):
                    # Deduplicated: content already lives in the clouds.
                    # The refcount guard matters: a record nothing
                    # references is garbage whose blocks any committer
                    # may already have reaped, so its locations cannot
                    # be trusted — re-referencing identical content must
                    # re-upload, not resurrect the stale placement.
                    continue
                if existing is None:
                    record = self.pipeline.make_record(segment)
                    local.add_segment(record)
                else:
                    record = local.write_segment(
                        segment.segment_id, locations={}, block_hashes={}
                    )
                pending_upload.append((record, segment.data))
            snapshot = FileSnapshot(
                path=path,
                timestamp=self.sim.now,
                size=len(content),
                segment_ids=[s.segment_id for s in segments],
                device=self.device,
            )
            local.upsert_file(snapshot)
            if pending_upload:
                uploads.append(FileUpload(path=path, segments=pending_upload))
                new_records.extend(record for record, _ in pending_upload)
            upserts.append(snapshot)
            report.uploaded_files.append(path)
        return {
            "uploads": uploads,
            "new_records": new_records,
            "upserts": upserts,
            "deletes": deletes,
        }

    # -- cloud-update path (lines 15-19 of Algorithm 1) ---------------------

    def _check_cloud_update(self, prefetch: bool = False):
        """Poll version files; returns the newest stamp if it is news.

        A cloud whose version file does not download or parse is one we
        cannot poll; when files exist but none parses, the round fails
        (:class:`SyncError`) — a rotted folder is not an empty one.
        A due heartbeat (the version this device has applied, paper
        §6.2) rides in the same gather, best effort: it is a lower
        bound, so one round late only delays a reclaim.  With
        ``prefetch``, one unretried GET of the delta from the first
        admitted replica in :meth:`_replicas` order rides there too;
        when the poll finds news, :meth:`_fetch_metadata` checks and
        uses those bytes instead of a second round trip.
        """

        def poll(conn):
            try:
                blob, stamp = yield from self._read_replica(
                    conn, self._version_path, deserialize_version,
                    retried=False,
                )
            except (CloudError, MetadataError) as exc:
                return exc
            self.metadata_bytes += len(blob)
            return stamp

        requests = [poll(conn) for conn in self.connections]
        if self._heartbeat_due:
            self._heartbeat_due = False
            blob = serialize_heartbeat(self.device, self.image.version.counter)
            requests += [conn.upload(self._heartbeat_path, blob)
                         for conn in self.connections]
        now = self.sim.now
        source = next((conn for conn in self._replicas()
                       if self.degrade.admits(conn.cloud_id, now)),
                      None) if prefetch else None
        if source is not None:
            requests.append(source.download(self._delta_path))
        # The heartbeat's outcomes trail the polls' and are not read;
        # the prefetch's comes last.
        outcomes = yield from gather_safe(self.sim, requests)
        self._prefetched = None
        if source is not None and outcomes[-1][0]:
            self.metadata_bytes += len(outcomes[-1][1])
        best: Optional[VersionStamp] = None
        counters: Dict[str, Optional[int]] = {}
        for conn, (_ok, stamp) in zip(self.connections, outcomes):
            counters[conn.cloud_id] = None
            if not isinstance(stamp, VersionStamp):
                continue
            counters[conn.cloud_id] = stamp.counter
            if best is None or stamp.counter > best.counter:
                best = stamp
        self._poll_counters = counters
        if best is None:
            if any(isinstance(stamp, MetadataError)
                   for _ok, stamp in outcomes):
                raise SyncError(
                    f"{self.device}: no version file decodes"
                )
            return None
        # Commit counters strictly increase under the quorum lock, so a
        # higher counter than our last-synced image is exactly "news".
        if best.counter > self.image.version.counter:
            if source is not None:
                self._prefetched = (source, outcomes[-1])
            return best
        return None

    def _apply_cloud_only_update(self, report: SyncReport,
                                 remote: VersionStamp):
        cloud_image = yield from self._fetch_metadata(expect=remote.counter)
        # A sync round gets here with nothing pending.  A conflict
        # resolution may hold local edits: one to a path the newer image
        # changed needs a sync round's merge, not an overwrite.
        raced = self._pending_changes and sorted(
            self._pending_changes.keys()
            & diff_images(self.image, cloud_image).keys()
        )
        if raced:
            raise SyncError(
                f"{self.device}: local edits to {raced} race newer "
                "commits; sync first"
            )
        previous = self.image
        self.image = cloud_image
        yield from self._materialize_diff(previous, cloud_image, report)

    # -- metadata transport -------------------------------------------------

    def _fetch_metadata(self, expect: Optional[int] = None):
        """Download delta + base from a *fresh* reachable cloud, trying
        replicas in :meth:`_replicas` order.

        The delta comes first: when its :func:`op_base_version` marker
        names the base this device holds (:attr:`_held`), the delta
        extends a copy of that image and the base is not downloaded —
        between folds, a reader fetches only the delta.  A device that
        holds no base downloads base ∥ delta.  A delta the poll
        prefetched (:meth:`_check_cloud_update`) stands in for that
        replica's delta download, unless the prefetch failed (reported,
        and the replica is read again in turn) or the poll showed the
        replica stale; it passes every check a downloaded one does.

        ``expect`` is the version counter the caller just observed in
        the version-file poll.  A reachable cloud can still be stale —
        it may have missed the last commit entirely, or missed a fold
        (old base) while receiving later delta appends (a *corrupt
        pair*, detected via the :func:`op_base_version` marker).
        Adopting such a replica would silently drop committed
        operations, so stale and corrupt clouds are skipped; if no cloud
        reconstructs at least ``expect``, the round fails with
        :class:`SyncError` and retries later rather than regressing.
        """
        span = None
        if OBS.enabled:
            span, _ = OBS.begin(
                "metadata_fetch", t=self.sim.now, track=self.device,
                expect=expect,
            )
        source, prefetched = None, None
        if self._prefetched is not None:
            source, (ok, prefetched) = self._prefetched
            self._prefetched = None
            if not ok:
                self._skip(source, prefetched)
            if not ok or self._stale(source.cloud_id, expect):
                source = None
        last_error: Optional[object] = None
        for conn in self._replicas(expect):
            if self._budget is not None and self._budget.expired:
                last_error = "round deadline budget exhausted"
                break
            if not self.degrade.admits(conn.cloud_id, self.sim.now):
                continue  # breaker open: don't burn a retry budget here
            try:
                delta, image = yield from self._read_pair(
                    conn, prefetched if conn is source else None
                )
                if delta is not None:
                    marker = delta.base_marker()
                    if marker >= 0 and marker != image.version.counter:
                        raise MetadataError(
                            f"{conn.cloud_id}: base/delta pair mismatch "
                            f"(base v{image.version.counter}, delta "
                            f"extends v{marker})", "corrupt-pair",
                        )
                    delta.apply_to(image)
                if expect is not None and image.version.counter < expect:
                    raise MetadataError(
                        f"{conn.cloud_id}: stale metadata "
                        f"(v{image.version.counter} < expected v{expect})",
                        "stale",
                    )
            except (CloudError, MetadataError) as exc:
                last_error = exc
                self._skip(conn, exc)
                continue
            recompute_refcounts(image)
            if span is not None:
                OBS.end(span, t=self.sim.now, served_by=conn.cloud_id,
                        version=image.version.counter)
            return image
        if span is not None:
            OBS.end(span, t=self.sim.now, error="SyncError")
        raise SyncError(f"{self.device}: no cloud served metadata ({last_error})")

    def _read_pair(self, conn: CloudAPI, delta_blob: Optional[bytes]):
        """``(delta, base image)`` of ``conn``'s replica; ``delta`` is
        None when the folder was never folded (the base is the image).

        ``delta_blob`` is the delta already downloaded from ``conn``
        (None: download it).  A device that holds no base downloads it
        in the same gather as the delta; one that holds the base the
        delta names does not download it at all.
        """
        held = self._held.get("base")
        paths = [] if delta_blob is not None else [self._delta_path]
        if held is None:
            paths.append(self._base_path)
        outcomes = yield from gather_safe(
            self.sim, [self._get(conn, path, self._budget) for path in paths]
        )
        got = dict(zip(paths, outcomes))
        for ok, blob in outcomes:
            if ok:
                self.metadata_bytes += len(blob)
        ok, blob = got.get(self._delta_path, (True, delta_blob))
        if ok:
            delta = self._decode("delta", blob)
        elif isinstance(blob, NotFoundError):
            delta = None
        else:
            raise blob
        if held is None:
            ok, blob = got[self._base_path]
            if not ok:
                raise blob
        elif delta is not None and delta.named_base() == base_name(held[0]):
            return delta, held[1].copy()
        else:
            blob = yield from self._get(conn, self._base_path, self._budget)
            self.metadata_bytes += len(blob)
        return delta, self._decode("base", blob)

    def _stale(self, cloud_id: str, expect: Optional[int]) -> bool:
        """Did the last poll show ``cloud_id`` below ``expect``?"""
        counter = self._poll_counters.get(cloud_id)
        return None not in (expect, counter) and counter < expect

    def _replicas(self, expect: Optional[int] = None) -> List[CloudAPI]:
        """The order metadata reads try clouds in: fastest download
        estimate first (stable; unprobed clouds lead), then those whose
        polled counter is known to be below ``expect``."""
        ids = [conn.cloud_id for conn in self.connections]
        return [self._connection(cid) for cid in
                sorted(self.estimator.rank(ids, DOWNLOAD),
                       key=lambda cid: self._stale(cid, expect))]

    def _get(self, conn: CloudAPI, path: str, budget=None):
        """``conn``'s ``path`` under the retry policy, stopped by
        ``budget``."""
        return self.retry.run(
            self.sim, lambda: conn.download(path), rng=self.rng,
            budget=budget,
        )

    def _read_replica(self, conn: CloudAPI, path: str, parse,
                      retried: bool = True, budget=None):
        """``(blob, parse(blob))`` for one cloud's replica of ``path``.

        Every metadata file this client reads from a cloud comes through
        here or :meth:`_get` (whose caller parses), and fails only with
        :class:`CloudError` or :class:`MetadataError`.  ``retried``
        downloads under the retry policy (stopped by ``budget``); polls
        and heartbeat reads send one request.
        """
        if retried:
            blob = yield from self._get(conn, path, budget)
        else:
            blob = yield from conn.download(path)
        return blob, parse(blob)

    def _skip(self, conn: CloudAPI, exc: Exception) -> None:
        """Report a base / delta replica the reader moved past, and why:
        the :class:`MetadataError` reason, or the cloud error's class."""
        if OBS.enabled:
            reason = (exc.reason if isinstance(exc, MetadataError)
                      else type(exc).__name__)
            OBS.metadata_skip(conn.cloud_id, self.sim.now, reason)

    def _decode(self, slot: str, blob: bytes):
        """A private copy of what the ``slot`` file's ``blob`` decodes to.

        The cipher and the parser run only for bytes this device does
        not already hold (:attr:`_held`): the delta a committer extends
        is far more often than not the one it published last round.  A
        blob that does not decode raises :class:`MetadataError` and is
        not kept.
        """
        held = self._held.get(slot)
        if held is None or held[0] != blob:
            decode = (
                deserialize_image if slot == "base" else DeltaLog.from_bytes
            )
            held = self._held[slot] = (
                blob, decode(blob, self.config.metadata_key)
            )
        return held[1].copy()

    def _publish_base(self, image: SyncFolderImage):
        """Replicate a fresh base everywhere; reset the delta.

        The fresh delta is not empty: it opens with a base-version
        marker so readers can detect a replica whose base missed this
        fold but whose delta received later appends, and so a reader
        that holds this base skips its download (see
        :meth:`_fetch_metadata`).
        """
        base_blob = serialize_image(image, self.config.metadata_key)
        fresh_delta = DeltaLog([
            op_base_version(image.version.counter, base_name(base_blob))
        ])
        delta_blob = fresh_delta.to_bytes(self.config.metadata_key)
        version_blob = serialize_version(image.version)
        yield from self._replicate(
            [(self._base_path, base_blob), (self._delta_path, delta_blob)],
            [(self._version_path, version_blob)],
        )
        # What we sealed ourselves we need not unseal when it comes back
        # (the caller goes on to mutate ``image``, hence the copy).
        self._held["base"] = (base_blob, image.copy())
        self._held["delta"] = (delta_blob, fresh_delta)

    def _publish_delta(self, image: SyncFolderImage, ops: List[dict]):
        """Append ops to the cloud delta, or fold into a new base at λ.

        ``image`` carries the *new* (already incremented) version, so
        the delta being extended must reconstruct exactly ``expected =
        image.version.counter - 1``, which the poll that ran moments
        ago under the same lock hold (:meth:`_check_cloud_update`) found
        newest on the *fresh* clouds.  When the delta this device holds
        reaches ``expected`` over the held base it names, it is that
        pair: it is extended with no download, and the held base gives
        the fold threshold its size.  Otherwise the delta comes from a
        fresh cloud (a replica that missed commits would drop their
        operations from the log) and the size from its listing.  With
        no fresh pair anywhere, fold: publishing a full base from our
        own image is always safe and heals stale replicas.
        """
        expected = image.version.counter - 1
        fresh = [
            conn
            for conn in self._replicas()
            if self._poll_counters.get(conn.cloud_id) == expected
        ]
        existing: Optional[DeltaLog] = None
        base_size = 0
        base, held = self._held.get("base"), self._held.get("delta")
        if (fresh and base and held and _reaches(held[1]) == expected
                and held[1].named_base() == base_name(base[0])):
            existing, base_size, fresh = held[1].copy(), len(base[0]), []
        for conn in fresh:
            try:
                blob, candidate = yield from self._read_replica(
                    conn, self._delta_path,
                    lambda blob: self._decode("delta", blob),
                )
                # Defense in depth: the pair must actually reconstruct
                # the previous commit (version files only witness the
                # write).
                reaches = _reaches(candidate)
                if expected > 0 and reaches != expected:
                    raise MetadataError(
                        f"{conn.cloud_id}: delta reaches v{reaches}, "
                        f"not v{expected}",
                        "stale" if reaches < expected else "corrupt-pair",
                    )
            except (CloudError, MetadataError) as exc:
                self._skip(conn, exc)
                continue
            self.metadata_bytes += len(blob)
            existing = candidate
            try:
                entries = yield from self.retry.run(
                    self.sim,
                    lambda c=conn: c.list_folder(self.config.meta_dir),
                    rng=self.rng,
                )
                for entry in entries:
                    if entry.path == self._base_path:
                        base_size = entry.size
            except CloudError:
                pass  # fold-threshold input only; 0 forces a safe fold
            break
        if existing is None:
            # No reachable cloud holds a fresh base/delta pair: rewrite
            # everything from our authoritative image instead.
            yield from self._publish_base(image)
            return
        existing.extend(ops)
        if base_size == 0 or should_merge(
            base_size, existing.sealed_size(), self.config
        ):
            yield from self._publish_base(image)
            return
        delta_blob = existing.to_bytes(self.config.metadata_key)
        version_blob = serialize_version(image.version)
        yield from self._replicate(
            [(self._delta_path, delta_blob)],
            [(self._version_path, version_blob)],
        )
        self._held["delta"] = (delta_blob, existing)

    def _replicate(self, *hops: List[Tuple[str, bytes]]):
        """Upload each hop's (path, blob)s to every cloud, a hop's files
        concurrently, the next hop once they landed; need a write quorum.

        Individual requests run under the unified :class:`RetryPolicy`:
        transient failures back off (with jitter) and retry — metadata
        files are small, so retries are cheap and the write quorum is
        the real safety net — while an *unavailable* cloud fails fast
        after a single attempt (each probe of a down cloud burns the
        full unavailability timeout); the quorum tolerates the miss and
        a later round heals the replica.

        Clouds whose breaker is open are skipped entirely (their retry
        budget is not burned); if fewer than a quorum of clouds admit
        traffic the write fails fast instead of timing out against
        known-bad replicas.
        """
        now = self.sim.now
        conns = [
            c for c in self.connections
            if self.degrade.admits(c.cloud_id, now)
        ]
        if len(conns) < self.quorum:
            raise SyncError(
                f"{self.device}: only {len(conns)}/"
                f"{len(self.connections)} clouds admit metadata "
                f"writes (need quorum {self.quorum})"
            )
        for conn in conns:
            self.degrade.note_dispatch(conn.cloud_id, now)

        def upload_all(conn):
            for hop in hops:
                outcomes = yield from gather_safe(self.sim, [
                    self.retry.run(
                        self.sim,
                        lambda c=conn, p=path, b=blob: c.upload(p, b),
                        rng=self.rng,
                        budget=self._budget,
                    )
                    for path, blob in hop
                ])
                for ok, exc in outcomes:
                    if not ok:
                        raise exc
            return True

        outcomes = yield from gather_safe(
            self.sim, [upload_all(conn) for conn in conns]
        )
        for conn, (ok, _res) in zip(conns, outcomes):
            if ok:
                self.degrade.on_success(conn.cloud_id, self.sim.now)
            else:
                # The unified policy already exhausted its attempt
                # budget on this cloud — conclusive evidence.
                self.degrade.on_failure(
                    conn.cloud_id, self.sim.now, fatal=True
                )
        successes = sum(1 for ok, _ in outcomes if ok)
        if successes < self.quorum:
            raise SyncError(
                f"{self.device}: metadata write reached only "
                f"{successes}/{len(self.connections)} clouds"
            )
        self.metadata_bytes += successes * sum(
            len(blob) for hop in hops for _path, blob in hop)

    # -- materializing remote state locally ---------------------------------

    def _materialize_diff(self, previous: SyncFolderImage,
                          current: SyncFolderImage, report: SyncReport):
        changes = diff_images(previous, current)
        to_fetch: List[str] = []
        deleted: List[str] = []
        for path, (kind, snapshot) in sorted(changes.items()):
            if kind == "delete":
                if self.fs.exists(path):
                    self.fs.delete_file(path)
                    report.deleted_files.append(path)
                    deleted.append(path)
                continue
            if snapshot.device == self.device and self._disk_matches(snapshot):
                # Our own commit, fresh from this folder — already local.
                # The content check matters: a snapshot can carry our
                # device name without matching the disk (a *retained*
                # edit of ours promoted back to current by another
                # device's delete), and skipping on provenance alone
                # would leave this folder diverged from the image.
                continue
            to_fetch.append(path)
        yield from self._materialize(current, to_fetch, report, deleted)

    def _disk_matches(self, snapshot: FileSnapshot) -> bool:
        """Is the folder's copy of this path the snapshot's content?"""
        try:
            content = self.fs.read_file(snapshot.path)
        except FileNotFoundError:
            return False
        if len(content) != snapshot.size:
            return False
        segments = self.pipeline.ingest_file(content)
        return [s.segment_id for s in segments] == snapshot.segment_ids

    def _materialize(self, image: SyncFolderImage, paths: List[str],
                     report: SyncReport, wrote: Sequence[str] = ()):
        """Download ``paths`` of ``image``; the watcher then absorbs
        these writes and ``wrote`` (the round's others), nothing else."""
        wants = []
        for path in paths:
            entry = image.files.get(path)
            if entry is None:
                self._pending_fetch.discard(path)
                continue
            records = [
                image.segments[sid]
                for sid in entry.current.segment_ids
                if sid in image.segments
            ]
            if len(records) != len(entry.current.segment_ids):
                continue
            wants.append(FileDownload(path=path, segments=records))
        if not wants:
            self.watcher.absorb(wrote)
            return
        span = batch_ctx = None
        if OBS.enabled:
            span, batch_ctx = OBS.begin(
                "download_batch", t=self.sim.now, track=self.device,
                ctx=self._trace_ctx, files=len(wants),
            )
        scheduler = DownloadScheduler(
            self.sim, self.connections, self.pipeline, self.config,
            estimator=self.estimator, retry_policy=self.retry,
            rng=self.rng, trace_ctx=batch_ctx, tenant=self.device,
            degrade=self.degrade, budget=self._budget,
        )
        batch = yield from scheduler.run_batch(wants)
        self.hedges_fired += scheduler.hedges_fired
        self.hedged_bytes += scheduler.hedged_bytes
        if span is not None:
            OBS.end(
                span, t=self.sim.now,
                failed_requests=batch.failed_requests,
            )
        report.download_report = batch
        wrote = list(wrote)
        for file_report in batch.files:
            if file_report.content is None:
                # Not enough clouds right now; retry on a later sync.
                self._pending_fetch.add(file_report.path)
                continue
            self._pending_fetch.discard(file_report.path)
            self.fs.write_file(
                file_report.path, file_report.content, mtime=self.sim.now
            )
            self.block_bytes += len(file_report.content)
            report.downloaded_files.append(file_report.path)
            wrote.append(file_report.path)
        self.watcher.absorb(wrote)

    def _handle_conflict_copies(self, conflicts: List[str],
                                image: SyncFolderImage) -> None:
        """Keep the user's losing edit next to the winning cloud copy.

        The copy paths become pending changes whether the copy file is
        new (first conflict on this path) or overwrites an earlier copy
        (repeat conflict) — both must sync to other devices.
        """
        copies = set()
        for path in conflicts:
            if not self.fs.exists(path):
                continue
            local_content = self.fs.read_file(path)
            copy_path = f"{path}.conflict-{self.device}"
            self.fs.write_file(copy_path, local_content, mtime=self.sim.now)
            copies.add(copy_path)
        for change in self.watcher.absorb(copies):
            self._pending_changes[change.path] = change.kind

    # -- device heartbeats & fully-synced GC ---------------------------------

    def fleet_applied_versions(self):
        """Read every device's heartbeat; returns {device: version}.

        Each heartbeat is taken from the first cloud whose replica
        downloads *and* parses as that device's heartbeat — the cloud is
        untrusted, so a rotted replica is skipped like an unreachable
        one.  A heartbeat that is listed but readable nowhere maps its
        device to ``None``: the device exists, what it has applied is
        unknown.
        """
        listings = yield from gather_safe(
            self.sim,
            [conn.list_folder(self.config.meta_dir) for conn in self.connections],
        )
        names = set()
        for ok, entries in listings:
            if not ok:
                continue
            for entry in entries:
                if entry.name.startswith("device_"):
                    names.add(entry.name)
        versions = {}
        for name in sorted(names):
            device = name.removeprefix("device_")
            versions[device] = None
            for conn in self.connections:
                try:
                    _blob, versions[device] = yield from self._read_replica(
                        conn, posixpath.join(self.config.meta_dir, name),
                        lambda blob: deserialize_heartbeat(blob, device),
                        retried=False,
                    )
                except (CloudError, MetadataError):
                    continue
                break
        return versions

    def gc_if_fully_synced(self):
        """Reclaim over-provisioned blocks once every known device has
        applied the current metadata version (paper §6.2).

        Returns True when the cleanup ran, False when some device still
        lags, its heartbeat is unreadable on every cloud (unknown is not
        caught up), or no heartbeats are visible yet.
        """
        versions = yield from self.fleet_applied_versions()
        if not versions:
            return False
        current = self.image.version.counter
        if any(applied is None or applied < current
               for applied in versions.values()):
            return False
        yield from self.gc_over_provisioned()
        return True

    # -- conflict resolution ----------------------------------------------

    def conflicted_paths(self) -> List[str]:
        """Paths whose entries retain unresolved conflict snapshots."""
        return sorted(
            path for path, entry in self.image.files.items()
            if entry.conflicts
        )

    def resolve_conflict(self, path: str, keep: str = "cloud"):
        """Resolve a retained conflict and commit the decision.

        ``keep="cloud"`` drops the retained local snapshot (the winning
        cloud version stays); ``keep="local"`` promotes the retained
        snapshot back to current — its content is fetched and written to
        the local path before the losing version's data is released.
        Commits peers made since the last sync are adopted and
        materialised first; a local edit racing one of them raises
        :class:`SyncError` with nothing adopted (sync, then resolve).
        """
        if keep not in ("cloud", "local"):
            raise ValueError(f"keep must be 'cloud' or 'local', not {keep!r}")
        entry = self.image.files.get(path)
        if entry is None or not entry.conflicts:
            raise KeyError(f"no unresolved conflict at {path}")
        yield from self.lock.acquire()
        try:
            # Record the user's edits before any write of ours: the
            # watcher events our writes raise are swallowed below.
            self._collect_local_changes()
            remote = yield from self._check_cloud_update()
            if remote is not None:
                # Adopt and materialise what peers committed since our
                # last sync, as a sync round would: the image must never
                # run ahead of the folder.
                yield from self._apply_cloud_only_update(
                    SyncReport(device=self.device, started_at=self.sim.now),
                    remote,
                )
            image = self.image.copy()
            entry = image.files.get(path)
            if entry is None or not entry.conflicts:
                return  # someone else resolved it meanwhile
            keep_index = len(entry.conflicts) - 1 if keep == "local" else None
            if keep == "local":
                # Materialize the promoted content before committing.
                snapshot = entry.conflicts[keep_index]
                records = [
                    image.segments[sid] for sid in snapshot.segment_ids
                    if sid in image.segments
                ]
                scheduler = DownloadScheduler(
                    self.sim, self.connections, self.pipeline, self.config,
                    estimator=self.estimator, retry_policy=self.retry,
                    rng=self.rng, tenant=self.device,
                    degrade=self.degrade,
                )
                batch = yield from scheduler.run_batch(
                    [FileDownload(path=path, segments=records)]
                )
                content = batch.report_for(path).content
                if content is None:
                    raise SyncError(
                        f"{self.device}: cannot fetch conflict copy of {path}"
                    )
                self.fs.write_file(path, content, mtime=self.sim.now)
                self.watcher.absorb([path])
            image.resolve_conflict(path, keep_index)
            image.version = VersionStamp(
                image.version.counter + 1, self.device
            )
            ops = [
                op_resolve_conflict(path, keep_index),
                op_set_version(image.version.counter, self.device),
            ]
            yield from self._publish_delta(image, ops)
            self.image = image
        finally:
            yield from self.lock.release()
        self._collect_garbage()

    # -- crash modelling & journal sweep --------------------------------------

    def crash(self) -> None:
        """Model abrupt device death (power loss) for chaos tests.

        Hard-stops the transfer workers of the round in flight and the
        quorum-lock refresher — none of their cleanup runs, so cloud
        state is left exactly as the dead process left it (landed
        blocks, possibly stale lock files).  The caller also kills the
        sync process itself (see ``FaultInjector.client_crash``); the
        journal is the only state the device carries into its next
        incarnation.
        """
        if self._active_upload is not None:
            self._active_upload.kill_workers()
            self._active_upload = None
        refresher = self.lock._refresher
        if refresher is not None and refresher.is_alive:
            refresher.kill()
        self.lock._refresher = None
        self.lock.held = False
        self._held.clear()  # volatile: only the journal survives

    def _journal_sweep(self):
        """Delete journaled blocks the committed image does not
        reference, then retire the journal (the round is accounted
        for — every acknowledged block is either in the image or
        gone)."""
        orphans = self.journal.orphan_blocks(self.image)
        swept = yield from self._delete_blocks(
            (cloud_id, self.pipeline.block_path(segment_id, index))
            for segment_id, placed in sorted(orphans.items())
            for index, cloud_id in sorted(placed.items())
        )
        if swept and OBS.enabled:
            OBS.journal_sweep(self.device, self.sim.now, swept)
        self.journal.commit()

    def _delete_blocks(self, blocks):
        """Delete block files concurrently: one request per ``(cloud_id,
        path)`` in order, skipping clouds this device no longer
        connects to.  Returns how many requests went out.  Every block
        delete — GC, over-provisioning reclaim, journal sweep, scrub
        orphans — goes through here."""
        requests = []
        for cloud_id, path in blocks:
            conn = self._connection(cloud_id)
            if conn is not None:
                requests.append(conn.delete(path))
        if requests:
            yield from gather_safe(self.sim, requests)
        return len(requests)

    # -- garbage collection --------------------------------------------------

    def _collect_garbage(self) -> None:
        """Delete cloud blocks of unreferenced segments (best effort, in
        the background)."""
        blocks = []
        for record in self.image.garbage_segments():
            blocks.extend(
                (cloud_id, self.pipeline.block_path(record.segment_id, index))
                for index, cloud_id in record.locations.items()
            )
            self.image.drop_segment(record.segment_id)
        if blocks:
            self.sim.process(self._delete_blocks(blocks))

    def gc_over_provisioned(self):
        """Reclaim over-provisioned blocks (paper §6.2).

        For every referenced segment, keep each cloud's fair share and
        delete the rest, updating the metadata image locally.  Run this
        once a file is known to be synced to all devices.
        """
        share = fair_share(self.config.k_blocks, self.config.k_reliability)
        blocks = []
        for record in self.image.segments.values():
            if record.refcount <= 0:
                continue
            extras = set()
            for cloud_id in record.clouds_holding():
                extra = record.blocks_on(cloud_id)[share:]
                blocks.extend(
                    (cloud_id,
                     self.pipeline.block_path(record.segment_id, index))
                    for index in extra
                )
                extras.update(extra)
            if extras:
                self.image.write_segment(record.segment_id, locations={
                    i: c for i, c in record.locations.items()
                    if i not in extras
                })
        yield from self._delete_blocks(blocks)

    # -- cloud membership -----------------------------------------------------

    def remove_cloud(self, cloud_id: str):
        """Drop a CCS: redistribute its fair share, then forget it.

        Delegates to the durability subsystem's decommission plan
        (``wipe=True``: the departing provider is still reachable, so
        its blocks, metadata replica and lock directory are scrubbed on
        the way out).  For a provider that is *gone* — permanently
        unreachable, data lost — use ``Scrubber.decommission`` with
        ``wipe=False`` instead.
        """
        from .scrub import Scrubber

        yield from Scrubber(self).decommission(cloud_id, wipe=True)

    def add_cloud(self, connection: CloudAPI):
        """Enroll a new CCS: it adopts its fair share from loaded clouds."""
        from .scrub import Scrubber

        yield from Scrubber(self).integrate(connection)

    def _commit_rebalanced_image(self):
        """Publish the rebalanced block map so other devices see it.

        Run add/remove on a quiescent folder: the rebalance commits the
        *current* image wholesale rather than merging concurrent edits.
        """
        yield from self.lock.acquire()
        try:
            self.image.version = VersionStamp(
                self.image.version.counter + 1, self.device
            )
            yield from self._publish_base(self.image)
        finally:
            yield from self.lock.release()

    def _fetch_blocks(self, record: SegmentRecord, count: int,
                      connections: Sequence[CloudAPI], placed=None):
        """Fetch up to ``count`` verified blocks of a segment.

        Tries the ``(index, cloud_id)`` pairs of ``placed`` in order
        (default: every recorded location) on ``connections``.  A block
        that does not download is *missing*, one whose bytes fail the
        recorded integrity hash *corrupt*; neither is returned, so rot
        never feeds a repair decode.  Fetched blocks are fingerprinted
        together (one :func:`block_hash_many` reduction) once enough
        are in hand to satisfy ``count``.  Returns ``(blocks, missing,
        corrupt)``: index -> bytes, and ``(segment_id, index,
        cloud_id)`` for each damaged block seen.
        """
        by_id = {c.cloud_id: c for c in connections}
        segment_id = record.segment_id
        blocks: Dict[int, bytes] = {}
        missing: List[Tuple[str, int, str]] = []
        corrupt: List[Tuple[str, int, str]] = []
        pending: List[tuple] = []  # (index, cloud_id, block, expected, t)

        def flush_verify():
            digests = block_hash_many([entry[2] for entry in pending])
            for (index, cloud_id, block, expected, t), digest in zip(
                pending, digests
            ):
                if digest != expected:
                    corrupt.append((segment_id, index, cloud_id))
                    if OBS.enabled:
                        # t is the sim time the rotten block finished
                        # downloading — detection is host CPU work.
                        OBS.corrupt_detected(cloud_id, t, segment_id, index)
                    continue
                blocks[index] = block
            pending.clear()

        if placed is None:
            placed = sorted(record.locations.items())
        for index, cloud_id in placed:
            if len(blocks) + len(pending) >= count:
                flush_verify()
                if len(blocks) >= count:
                    break
            conn = by_id.get(cloud_id)
            if conn is None:
                continue
            try:
                block = yield from conn.download(
                    self.pipeline.block_path(segment_id, index)
                )
            except CloudError:
                missing.append((segment_id, index, cloud_id))
                continue
            expected = (
                record.block_hashes.get(index)
                if getattr(conn, "retains_content", True) else None
            )
            if expected is not None:
                pending.append(
                    (index, cloud_id, block, expected, self.sim.now)
                )
            else:
                blocks[index] = block
        flush_verify()
        return blocks, missing, corrupt

    def _connection(self, cloud_id: str) -> Optional[CloudAPI]:
        for conn in self.connections:
            if conn.cloud_id == cloud_id:
                return conn
        return None

    # -- metrics ---------------------------------------------------------

    def traffic_totals(self) -> Dict[str, int]:
        """Aggregate client traffic for the overhead experiments."""
        totals = {
            "payload_up": 0,
            "payload_down": 0,
            "overhead": 0,
            "requests": 0,
            "failed_requests": 0,
        }
        for conn in self.connections:
            meter = getattr(conn, "traffic", None)
            if meter is None:
                continue
            totals["payload_up"] += meter.payload_up
            totals["payload_down"] += meter.payload_down
            totals["overhead"] += meter.overhead
            totals["requests"] += meter.requests
            totals["failed_requests"] += meter.failed_requests
        totals["metadata_bytes"] = self.metadata_bytes
        totals["block_bytes"] = self.block_bytes
        return totals
