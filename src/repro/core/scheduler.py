"""Data block scheduling (paper §6.2) — UniDrive's networking core.

Upload policy, per batch of files:

* **Basic scheduling** — each segment's ``fair_share * N`` normal parity
  blocks are partitioned evenly and deterministically across clouds.
* **Over-provisioning** — a cloud that exhausts its fair share keeps
  pulling *extra* parity blocks (never exceeding the per-cloud security
  cap), so network use is proportional to observed speed and fast clouds
  are never idle while slow ones lag.
* **Two-phase batch order** — *availability-first*: every connection
  works on the earliest file that is not yet available (k blocks per
  segment uploaded); only when all files are available does the
  *reliability-second* phase top up outstanding fair shares.
* **Dynamic, pull-based dispatch** — an idle connection asks for the
  next block, so faster clouds naturally transfer more; completed
  transfers feed the in-channel
  :class:`~repro.core.probing.ThroughputEstimator`.

Download policy: any k blocks per segment suffice; idle connections pull
block indices their cloud holds, never requesting more than k per
segment, with files strictly in order.

Setting ``over_provision=False`` and ``dynamic=False`` turns the
scheduler into the RACS/DepSky-style **multi-cloud benchmark** baseline
the paper compares against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cloud import CloudAPI, CloudError, NotFoundError
from ..obs import OBS
from ..simkernel import AllOf, AnyOf, Simulator
from .config import UniDriveConfig
from .degrade import DeadlineBudget, DegradeController
from .metadata import SegmentRecord
from .pipeline import BlockPipeline, block_hash
from .placement import fair_share, fair_share_assignment, max_blocks_per_cloud
from .probing import DOWNLOAD, UPLOAD, ThroughputEstimator
from .retry import RETRY, RetryPolicy

__all__ = [
    "UploadScheduler",
    "DownloadScheduler",
    "FileUpload",
    "FileUploadReport",
    "UploadBatchReport",
    "FileDownload",
    "FileDownloadReport",
    "DownloadBatchReport",
]


def _block_done(span, estimator, conn, cloud_id, direction, nbytes, now,
                tenant, redundant=False):
    """Report one completed block (callers guard on ``OBS.enabled``),
    pairing the estimator's view of the link with its true rate."""
    engine = getattr(
        conn, "uplink" if direction == UPLOAD else "downlink", None
    )
    bandwidth = getattr(engine, "bandwidth", None)
    estimate = true_rate = None
    if bandwidth is not None:
        true_rate = bandwidth.rate_at(now)
        estimate = estimator.estimate(cloud_id, direction)
    OBS.transfer_done(span, cloud_id, now, direction, nbytes, tenant,
                      redundant, estimate, true_rate)


def _retry_wait(sim, delay, cloud_id, direction, failures):
    """Sit out one connection's back-off before its next attempt."""
    wait = None
    if OBS.enabled:
        wait, _ = OBS.begin(
            "retry_wait", t=sim.now, track=cloud_id, dir=direction,
            attempt=failures[cloud_id],
        )
    yield sim.timeout(delay)
    if wait is not None:
        OBS.end(wait, t=sim.now)


# ---------------------------------------------------------------------------
# Inputs and reports
# ---------------------------------------------------------------------------


@dataclass
class FileUpload:
    """One file to upload: its segments (records + plaintext data)."""

    path: str
    segments: List[Tuple[SegmentRecord, bytes]]  # (record, segment bytes)

    @property
    def size(self) -> int:
        return sum(record.size for record, _ in self.segments)


@dataclass
class FileUploadReport:
    path: str
    size: int
    started_at: float
    available_at: Optional[float] = None
    reliable_at: Optional[float] = None
    degraded: bool = False  # a cloud died; fair shares incomplete
    blocks_per_cloud: Dict[str, int] = field(default_factory=dict)

    @property
    def available_duration(self) -> Optional[float]:
        if self.available_at is None:
            return None
        return self.available_at - self.started_at


@dataclass
class UploadBatchReport:
    files: List[FileUploadReport]
    started_at: float = 0.0
    finished_at: float = 0.0
    failed_requests: int = 0

    @property
    def all_available(self) -> bool:
        return all(f.available_at is not None for f in self.files)

    @property
    def last_available_at(self) -> Optional[float]:
        times = [f.available_at for f in self.files]
        if any(t is None for t in times):
            return None
        return max(times) if times else self.started_at

    def report_for(self, path: str) -> FileUploadReport:
        for report in self.files:
            if report.path == path:
                return report
        raise KeyError(path)


@dataclass
class FileDownload:
    """One file to download: ordered segment records from metadata."""

    path: str
    segments: List[SegmentRecord]

    @property
    def size(self) -> int:
        return sum(record.size for record in self.segments)


@dataclass
class FileDownloadReport:
    path: str
    size: int
    started_at: float
    completed_at: Optional[float] = None
    content: Optional[bytes] = None

    @property
    def duration(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass
class DownloadBatchReport:
    files: List[FileDownloadReport]
    started_at: float = 0.0
    finished_at: float = 0.0
    failed_requests: int = 0

    @property
    def all_completed(self) -> bool:
        return all(f.completed_at is not None for f in self.files)

    def report_for(self, path: str) -> FileDownloadReport:
        for report in self.files:
            if report.path == path:
                return report
        raise KeyError(path)


# ---------------------------------------------------------------------------
# Upload scheduling
# ---------------------------------------------------------------------------


class _SegmentUploadState:
    """Book-keeping for one unique segment within a batch."""

    def __init__(self, record: SegmentRecord, data: bytes,
                 cloud_ids: Sequence[str], config: UniDriveConfig):
        self.record = record
        self.data = data
        # Position in the batch's flattened first-occurrence scan order;
        # assigned by the scheduler, used by the cursor dispatcher.
        self.position = 0
        # Progress-counter bookkeeping (set once, when the transition
        # is first observed after a completed block).
        self.counted_available = False
        self.counted_reliable = False
        self.k = record.k
        self.cap = max_blocks_per_cloud(record.k, config.k_security)
        share = fair_share(record.k, config.k_reliability)
        assignment = fair_share_assignment(cloud_ids, record.k,
                                           config.k_reliability)
        self.fair: Dict[str, deque] = {
            cid: deque(indices) for cid, indices in assignment.items()
        }
        self.fair_targets: Dict[str, int] = {cid: share for cid in cloud_ids}
        normal_count = share * len(cloud_ids)
        self.extras = deque(range(normal_count, record.n))
        self.uploaded: Dict[int, str] = {}
        self.inflight: Dict[int, str] = {}
        self.fair_inflight: set = set()
        self.per_cloud: Dict[str, int] = {cid: 0 for cid in cloud_ids}
        self.fair_uploaded: Dict[str, int] = {cid: 0 for cid in cloud_ids}
        self.degraded = False

    # -- predicates --------------------------------------------------------

    @property
    def assignment_satisfied(self) -> bool:
        """Enough blocks uploaded or in flight to promise availability."""
        return len(self.uploaded) + len(self.inflight) >= self.k

    @property
    def available(self) -> bool:
        return len(self.uploaded) >= self.k

    def fair_done(self, cloud_id: str) -> bool:
        return self.fair_uploaded.get(cloud_id, 0) >= self.fair_targets.get(
            cloud_id, 0
        )

    def fair_pending(self, cloud_id: str) -> bool:
        return bool(self.fair.get(cloud_id))

    @property
    def reliable(self) -> bool:
        return all(
            self.fair_done(cid) for cid in self.fair_targets
        ) and not self.degraded

    def any_fair_pending(self) -> bool:
        return any(self.fair.values())

    @property
    def fair_outstanding(self) -> bool:
        """Fair-share work still queued or in flight anywhere."""
        return self.any_fair_pending() or bool(self.fair_inflight)

    def cap_room(self, cloud_id: str) -> bool:
        return self.per_cloud.get(cloud_id, 0) < self.cap

    # -- transitions -------------------------------------------------------

    def take_fair(self, cloud_id: str) -> Optional[int]:
        queue = self.fair.get(cloud_id)
        if not queue or not self.cap_room(cloud_id):
            return None
        index = queue.popleft()
        self._mark_inflight(index, cloud_id)
        self.fair_inflight.add(index)
        return index

    def take_extra(self, cloud_id: str) -> Optional[int]:
        if not self.extras or not self.cap_room(cloud_id):
            return None
        index = self.extras.popleft()
        self._mark_inflight(index, cloud_id)
        return index

    def _mark_inflight(self, index: int, cloud_id: str) -> None:
        self.inflight[index] = cloud_id
        self.per_cloud[cloud_id] = self.per_cloud.get(cloud_id, 0) + 1

    def complete(self, index: int, cloud_id: str, is_fair: bool) -> None:
        self.inflight.pop(index, None)
        self.fair_inflight.discard(index)
        self.uploaded[index] = cloud_id
        # The asynchronous Cloud-ID callback (paper §5.1): the metadata
        # record learns where the block landed as soon as it landed.
        self.record.locations[index] = cloud_id
        if is_fair:
            self.fair_uploaded[cloud_id] = self.fair_uploaded.get(cloud_id, 0) + 1

    def preseed(self, index: int, cloud_id: str) -> None:
        """Mark a block as already on a cloud (journal resume).

        The block counts toward availability, fair shares, and the
        per-cloud security cap without being re-uploaded.  A journaled
        index normally sits in ``cloud_id``'s own fair queue (the
        assignment is deterministic); if the original round had degraded
        and dispatched it elsewhere, it is pulled from wherever it
        queues so no worker uploads it twice.
        """
        if index in self.uploaded:
            return
        is_fair = False
        queue = self.fair.get(cloud_id)
        if queue is not None and index in queue:
            queue.remove(index)
            is_fair = True
        elif index in self.extras:
            self.extras.remove(index)
        else:
            for other_queue in self.fair.values():
                if index in other_queue:
                    other_queue.remove(index)
                    break
        self.uploaded[index] = cloud_id
        self.record.locations[index] = cloud_id
        self.per_cloud[cloud_id] = self.per_cloud.get(cloud_id, 0) + 1
        if is_fair:
            self.fair_uploaded[cloud_id] = self.fair_uploaded.get(cloud_id, 0) + 1

    def fail(self, index: int, cloud_id: str, is_fair: bool,
             cloud_dead: bool) -> None:
        """Return the index to its pool (or the extras pool if the cloud
        died and can no longer take its fair share)."""
        self.inflight.pop(index, None)
        self.fair_inflight.discard(index)
        self.per_cloud[cloud_id] = max(0, self.per_cloud.get(cloud_id, 0) - 1)
        if is_fair and not cloud_dead:
            self.fair[cloud_id].appendleft(index)
        else:
            if is_fair:
                self.degraded = True
            self.extras.appendleft(index)

    def abandon_cloud(self, cloud_id: str) -> None:
        """A cloud died: its queued fair indices become extras."""
        queue = self.fair.get(cloud_id)
        if queue:
            self.degraded = True
            while queue:
                self.extras.appendleft(queue.pop())


@dataclass
class _UploadTask:
    state: _SegmentUploadState
    index: int
    is_fair: bool


class UploadScheduler:
    """Schedules one batch of file uploads over the multi-cloud."""

    def __init__(
        self,
        sim: Simulator,
        connections: Sequence[CloudAPI],
        pipeline: BlockPipeline,
        config: UniDriveConfig,
        estimator: Optional[ThroughputEstimator] = None,
        over_provision: bool = True,
        dynamic: bool = True,
        on_block_uploaded: Optional[Callable[[str, int, str], None]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        rng=None,
        resume: Optional[Dict[str, Dict[int, str]]] = None,
        trace_ctx=None,
        tenant: Optional[str] = None,
        degrade: Optional[DegradeController] = None,
        budget: Optional[DeadlineBudget] = None,
    ):
        if not connections:
            raise ValueError("need at least one cloud connection")
        self.sim = sim
        self.connections = list(connections)
        self.cloud_ids = [c.cloud_id for c in self.connections]
        # Degradation control plane (None = disabled, the default): the
        # breaker gate in _next_task and the per-round deadline budget.
        self._degrade = degrade
        self._budget = budget
        self.pipeline = pipeline
        self.config = config
        self.estimator = estimator or ThroughputEstimator()
        self.over_provision = over_provision
        self.dynamic = dynamic
        self.on_block_uploaded = on_block_uploaded
        # Trace-correlation ancestry for this batch's transfer spans and
        # tenant identity for per-tenant SLO accounting; both optional
        # and inert unless the respective hub is enabled.
        self.trace_ctx = trace_ctx
        self.tenant = tenant
        # Journal resume: segment_id -> {index: cloud_id} of blocks a
        # previous (crashed) round already landed; they are credited as
        # uploaded at batch start and never re-transferred.
        self.resume = resume or {}
        # Unified failure policy: classifies errors (fail-fast vs
        # transient) and paces re-dispatch after transient failures.
        # rng=None keeps the backoff schedule deterministic.
        self.retry = retry_policy or RetryPolicy.from_config(config)
        self.rng = rng
        # Per-batch state, reset in run_batch().
        self._files: List[FileUpload] = []
        self._reports: Dict[str, FileUploadReport] = {}
        self._states: Dict[str, _SegmentUploadState] = {}
        self._file_segments: Dict[str, List[_SegmentUploadState]] = {}
        self._inflight_total = 0
        self._dead: Dict[str, int] = {}
        self._failed_requests = 0
        # Slots: the parked FIFO, unretired count, workers, completion.
        self._parked: List[CloudAPI] = []
        self._live = 0
        self._workers: List = []
        self._finished = None
        # Cursor-dispatch structures (see _next_task): the flattened
        # first-occurrence state order, a segment->files index, per-cloud
        # phase cursors, the clouds whose cursors all sit at the end
        # and incrementally-maintained per-file progress counters.
        self._ordered: List[_SegmentUploadState] = []
        self._state_files: Dict[str, List[str]] = {}
        self._ptr_a: Dict[str, int] = {}
        self._ptr_b: Dict[str, int] = {}
        self._ptr_c: Dict[str, int] = {}
        self._drained: set = set()
        self._pending_available: Dict[str, int] = {}
        self._pending_reliable: Dict[str, int] = {}
        self._satisfied_flush: List[str] = []
        self._dispatch_scans = 0  # state visits, for the perf harness
        self._aborted = False

    # -- public API -------------------------------------------------------

    def run_batch(self, files: Sequence[FileUpload]):
        """Upload a batch; generator returns an :class:`UploadBatchReport`."""
        started = self.sim.now
        self._files = list(files)
        self._reports = {}
        self._states = {}
        self._file_segments = {}
        self._inflight_total = 0
        self._dead = {cid: 0 for cid in self.cloud_ids}
        self._failed_requests = 0
        self._ordered = []
        self._state_files = {}
        self._satisfied_flush = []
        self._dispatch_scans = 0
        for file in self._files:
            self._reports[file.path] = FileUploadReport(
                path=file.path, size=file.size, started_at=self.sim.now,
                blocks_per_cloud={cid: 0 for cid in self.cloud_ids},
            )
            states = []
            for record, data in file.segments:
                state = self._states.get(record.segment_id)
                if state is None:
                    state = _SegmentUploadState(
                        record, data, self.cloud_ids, self.config
                    )
                    state.position = len(self._ordered)
                    for idx, cid in sorted(
                        self.resume.get(record.segment_id, {}).items()
                    ):
                        if cid in self.cloud_ids:
                            state.preseed(idx, cid)
                    self._states[record.segment_id] = state
                    self._ordered.append(state)
                    self._state_files[record.segment_id] = []
                files_of = self._state_files[record.segment_id]
                if file.path not in files_of:
                    files_of.append(file.path)
                states.append(state)
            self._file_segments[file.path] = states
        self._ptr_a = {cid: 0 for cid in self.cloud_ids}
        self._ptr_b = {cid: 0 for cid in self.cloud_ids}
        self._ptr_c = {cid: 0 for cid in self.cloud_ids}
        self._drained = set()
        self._pending_available = {}
        self._pending_reliable = {}
        for file in self._files:
            unique = {
                id(s): s for s in self._file_segments[file.path]
            }
            self._pending_available[file.path] = len(unique)
            self._pending_reliable[file.path] = len(unique)
            if not unique:
                # A zero-segment file is vacuously available *and*
                # reliable; like the full-scan refresh, it is stamped at
                # the first progress check (or the final one).
                self._satisfied_flush.append(file.path)
        if self.resume:
            # Preseeded blocks count as completed progress right away
            # (countdowns, availability stamps) — they just never
            # re-transfer.
            for state in self._ordered:
                if state.uploaded:
                    self._note_block_completed(state)
        # Every slot starts parked; batch start is one dispatch step.
        self._parked = [conn for conn in self.connections
                        for _ in range(self.config.connections_per_cloud)]
        self._live = len(self._parked)
        self._finished = self.sim.event()
        self._pulse()
        yield self._finished
        self._workers = []
        self.pipeline.release(self._states)
        self._refresh_file_reports(final=True)
        return UploadBatchReport(
            files=[self._reports[f.path] for f in self._files],
            started_at=started,
            finished_at=self.sim.now,
            failed_requests=self._failed_requests,
        )

    # -- connection slots (DESIGN.md "Upload wake-ups") ---------------------

    def _claim(self, conn: CloudAPI) -> Optional[_UploadTask]:
        """An idle slot's decision: its next task, or park or retire it."""
        if (self._budget is not None and not self._aborted
                and self._budget.expired):
            # Round deadline reached: stop dispatching; the batch
            # winds down with whatever blocks already landed
            # (brownout debt or a SyncError pick it up upstream).
            self.abort()
        if not self._aborted:
            task = self._next_task(conn.cloud_id)
            if task is not None:
                return task
            if not self._done():
                self._parked.append(conn)
                return None
        self._retire(1)
        return None

    def _dispatch(self, slots: List[CloudAPI]) -> None:
        """Give each slot parked before this pulse its old wake-up."""
        if not self._live:
            return  # kill_workers retired every slot
        # Exact skip: with blocks in flight _done() is False, and a drained
        # or dead cloud's _next_task is None after the breaker's clock check.
        skip = self.dynamic and self._budget is None
        for position, conn in enumerate(slots):
            cloud_id = conn.cloud_id
            if (skip and self._inflight_total and not self._aborted
                    and (cloud_id in self._drained
                         or self._is_dead(cloud_id))):
                if self._degrade is not None:
                    self._degrade.admits(cloud_id, self.sim.now)
                self._parked.append(conn)
                continue
            live = self._live
            task = self._claim(conn)
            if task is not None:
                # Inline: it draws from an RNG the later slots share.
                proc = self.sim.start(self._worker(conn, task))
                proc.add_callback(self._worker_exit)
                self._workers.append(proc)
            elif self._live < live:
                # Retired: nothing changed since, so the rest would too.
                if position + 1 < len(slots):
                    self._retire(len(slots) - position - 1)
                return

    def _retire(self, count: int) -> None:
        self._live -= count
        if self._live == 0:
            # Two hops, as the last worker's exit and the AllOf took.
            self.sim.call_later(0.0, self._finished.succeed)

    def _worker_exit(self, proc) -> None:
        if not proc.ok and not self._finished.triggered:  # as AllOf did
            proc.defused = True
            self._finished.fail(proc.value)

    def _worker(self, conn: CloudAPI, task: _UploadTask):
        cloud_id = conn.cloud_id
        while task is not None:
            state, index = task.state, task.index
            # Integrity fingerprint, recorded at encode time: blocks are
            # deterministic in (segment content, index), so the hash is
            # valid metadata even if this particular transfer fails.
            # The digest rides along from the batched per-segment
            # fingerprint pass over the encoded matrix.
            block, digest = self.pipeline.encode_block_with_digest(
                state.record.segment_id, state.data, index
            )
            if index not in state.record.block_hashes:
                state.record.block_hashes[index] = digest
            path = self.pipeline.block_path(state.record, index)
            self._inflight_total += 1
            start = self.sim.now
            span = block_ctx = None
            if OBS.enabled:
                span, block_ctx = OBS.begin(
                    "transfer", t=start, track=cloud_id, ctx=self.trace_ctx,
                    dir=UPLOAD, seg=state.record.segment_id[:12],
                    block=index, bytes=len(block), fair=task.is_fair,
                    attempt=self._dead[cloud_id] + 1,
                )
            try:
                yield from conn.upload(path, block, ctx=block_ctx)
            except CloudError as exc:
                self._inflight_total -= 1
                self._failed_requests += 1
                self.estimator.record_failure(
                    cloud_id, UPLOAD, now=self.sim.now
                )
                # Fail fast on non-transient errors: an unavailable (or
                # quota-exhausted) cloud is declared dead for the batch
                # immediately — re-probing it burns the unavailability
                # timeout per attempt with no chance of success.
                action = self.retry.classify(exc)
                fatal = action is not RETRY
                if OBS.enabled:
                    OBS.transfer_failed(
                        span, cloud_id, self.sim.now, UPLOAD,
                        type(exc).__name__, action, self.tenant,
                    )
                if self._degrade is not None:
                    self._degrade.on_failure(
                        cloud_id, self.sim.now, fatal=fatal
                    )
                dead = self._note_failure(cloud_id, fatal=fatal)
                state.fail(index, cloud_id, task.is_fair, cloud_dead=dead)
                # A failure restores candidacy: the failed index went
                # back to this cloud's fair queue or to the shared
                # extras pool, and this cloud regained cap room.
                self._rewind_cursors(state.position)
                self._pulse()
                if not dead:
                    # Transient: pace this connection's next attempt.
                    delay = self.retry.backoff(
                        self._dead[cloud_id] - 1, self.rng
                    )
                    if delay > 0:
                        yield from _retry_wait(
                            self.sim, delay, cloud_id, UPLOAD, self._dead,
                        )
                task = self._claim(conn)
                continue
            self._inflight_total -= 1
            self._dead[cloud_id] = 0
            if self._degrade is not None:
                self._degrade.on_success(cloud_id, self.sim.now)
            self.estimator.record(
                cloud_id, UPLOAD, len(block), self.sim.now - start,
                now=self.sim.now,
            )
            if OBS.enabled:
                _block_done(
                    span, self.estimator, conn, cloud_id, UPLOAD,
                    len(block), self.sim.now, self.tenant,
                    redundant=not task.is_fair,
                )
            state.complete(index, cloud_id, task.is_fair)
            if task.is_fair:
                # Completing a fair block may flip fair_done for this
                # cloud, unlocking this segment's extras for it.
                self._rewind_cursors(state.position, only_cloud=cloud_id)
            if self.on_block_uploaded is not None:
                self.on_block_uploaded(
                    state.record.segment_id, index, cloud_id
                )
            self._note_block_completed(state)
            self._bump_block_count(state, cloud_id)
            self._pulse()
            task = self._claim(conn)

    # -- dispatch policy ----------------------------------------------------

    def _next_task(self, cloud_id: str,
                   peek: bool = False) -> Optional[_UploadTask]:
        """Pick (and unless ``peek``, commit) the next block for a cloud.

        Dynamic mode uses the amortized-O(1) cursor dispatcher below;
        the static benchmark baseline keeps the reference decision
        ladder (its file-gated order does not admit a prefix cursor).
        Both walk the same ladder in peek and commit mode, so a
        successful peek guarantees the subsequent commit would succeed.
        """
        if self._aborted:
            return None
        if self._degrade is not None and not self._degrade.admits(
            cloud_id, self.sim.now
        ):
            # Breaker open (or the scoreboard pins the cloud
            # unavailable): no regular dispatch — the fix for the
            # degraded-cloud retry burn, where every fresh batch used
            # to grant a known-bad cloud a full paced retry budget.
            # Half-open probes pass through admits() bounded by the
            # probe quota and are accounted in the non-peek commit
            # below.
            return None
        if not self.dynamic:
            task = self._next_task_reference(cloud_id, peek)
        else:
            if cloud_id in self._drained or self._is_dead(cloud_id):
                return None
            task = self._scan_phase_a(cloud_id, peek)
            if task is None:
                task = self._scan_phase_b(cloud_id, peek)
            if task is None and self.over_provision:
                task = self._scan_phase_c(cloud_id, peek)
            if task is None:
                self._drained.add(cloud_id)
        if task is not None and not peek and self._degrade is not None:
            self._degrade.note_dispatch(cloud_id, self.sim.now)
        return task

    # The three phase scans share one structure: walk the flattened
    # first-occurrence state order from this cloud's cursor, skipping
    # states that cannot currently yield a task.  Every skip is
    # *permanent* with respect to this cloud's own actions — a skipped
    # state can only become dispatchable again through an event that
    # calls _rewind_cursors (a failed request re-queues an index and
    # frees cap room; a completed fair share unlocks extras; a dead
    # cloud's abandoned fair queue refills the extras pool) — so the
    # cursor never needs to revisit the prefix and dispatch cost is
    # amortized O(1) per block instead of O(files x segments).

    def _scan_phase_a(self, cloud_id: str,
                      peek: bool) -> Optional[_UploadTask]:
        """Availability-first: earliest file not yet available."""
        ordered = self._ordered
        count = len(ordered)
        ptr = self._ptr_a[cloud_id]
        while ptr < count:
            state = ordered[ptr]
            self._dispatch_scans += 1
            if not state.available:
                if state.fair_pending(cloud_id):
                    if state.cap_room(cloud_id):
                        self._ptr_a[cloud_id] = ptr
                        if peek:
                            return _UploadTask(state, -1, is_fair=True)
                        return _UploadTask(
                            state, state.take_fair(cloud_id), is_fair=True
                        )
                elif (self.over_provision and state.fair_done(cloud_id)
                        and state.extras and state.cap_room(cloud_id)):
                    self._ptr_a[cloud_id] = ptr
                    if peek:
                        return _UploadTask(state, -1, is_fair=False)
                    return _UploadTask(
                        state, state.take_extra(cloud_id), is_fair=False
                    )
            ptr += 1
        self._ptr_a[cloud_id] = count
        return None

    def _scan_phase_b(self, cloud_id: str,
                      peek: bool) -> Optional[_UploadTask]:
        """Reliability-second: top up outstanding fair shares."""
        ordered = self._ordered
        count = len(ordered)
        ptr = self._ptr_b[cloud_id]
        while ptr < count:
            state = ordered[ptr]
            self._dispatch_scans += 1
            if state.fair_pending(cloud_id) and state.cap_room(cloud_id):
                self._ptr_b[cloud_id] = ptr
                if peek:
                    return _UploadTask(state, -1, is_fair=True)
                return _UploadTask(
                    state, state.take_fair(cloud_id), is_fair=True
                )
            ptr += 1
        self._ptr_b[cloud_id] = count
        return None

    def _scan_phase_c(self, cloud_id: str,
                      peek: bool) -> Optional[_UploadTask]:
        """Over-provision while slower clouds still owe fair shares."""
        ordered = self._ordered
        count = len(ordered)
        ptr = self._ptr_c[cloud_id]
        while ptr < count:
            state = ordered[ptr]
            self._dispatch_scans += 1
            if (state.fair_outstanding and state.fair_done(cloud_id)
                    and state.extras and state.cap_room(cloud_id)):
                self._ptr_c[cloud_id] = ptr
                if peek:
                    return _UploadTask(state, -1, is_fair=False)
                return _UploadTask(
                    state, state.take_extra(cloud_id), is_fair=False
                )
            ptr += 1
        self._ptr_c[cloud_id] = count
        return None

    def _rewind_cursors(self, position: int,
                        only_cloud: Optional[str] = None) -> None:
        """Pull phase cursors back to ``position`` after an event that
        may have restored a skipped state's candidacy."""
        clouds = (only_cloud,) if only_cloud is not None else self.cloud_ids
        for cid in clouds:
            self._drained.discard(cid)
            if self._ptr_a[cid] > position:
                self._ptr_a[cid] = position
            if self._ptr_b[cid] > position:
                self._ptr_b[cid] = position
            if self._ptr_c[cid] > position:
                self._ptr_c[cid] = position

    def _next_task_reference(self, cloud_id: str,
                             peek: bool = False) -> Optional[_UploadTask]:
        """The original O(files x segments) decision-ladder dispatcher.

        Retained as the executable specification of the scheduling
        policy: the cursor dispatcher above must pick byte-identical
        blocks (the equivalence tests swap this in and compare batch
        reports), and the static benchmark baseline still runs on it.
        """
        if self._is_dead(cloud_id):
            return None

        def fair(state: _SegmentUploadState) -> Optional[_UploadTask]:
            if not state.fair_pending(cloud_id) or not state.cap_room(cloud_id):
                return None
            if peek:
                return _UploadTask(state, -1, is_fair=True)
            return _UploadTask(state, state.take_fair(cloud_id), is_fair=True)

        def extra(state: _SegmentUploadState) -> Optional[_UploadTask]:
            # Over-provisioned blocks go only to clouds that already
            # *finished transferring* their own fair share of this
            # segment (paper §6.2).
            if not state.fair_done(cloud_id):
                return None
            if not state.extras or not state.cap_room(cloud_id):
                return None
            if peek:
                return _UploadTask(state, -1, is_fair=False)
            return _UploadTask(state, state.take_extra(cloud_id),
                               is_fair=False)

        # Phase A: availability-first, files strictly in order.  Every
        # cloud keeps pulling blocks for the earliest file that is not
        # yet *available* (k blocks actually uploaded) — maximal
        # parallel transfer, with fast clouds hedging via extras.
        for file in self._files:
            for state in self._file_segments[file.path]:
                self._dispatch_scans += 1
                if state.available:
                    continue
                task = fair(state)
                if task is not None:
                    return task
                if self.over_provision:
                    task = extra(state)
                    if task is not None:
                        return task
            if not self.dynamic:
                # Benchmark baseline: finish this file's fair shares
                # before touching the next file (no phase split).
                for state in self._file_segments[file.path]:
                    task = fair(state)
                    if task is not None:
                        return task
                if any(
                    not s.available or s.any_fair_pending()
                    for s in self._file_segments[file.path]
                ):
                    return None
        # Phase B: reliability-second — top up outstanding fair shares.
        for file in self._files:
            for state in self._file_segments[file.path]:
                self._dispatch_scans += 1
                task = fair(state)
                if task is not None:
                    return task
        # Over-provision while slower clouds still owe fair shares
        # (stop once the slowest cloud finished its fair share, §6.2).
        if self.over_provision and self.dynamic:
            for file in self._files:
                for state in self._file_segments[file.path]:
                    self._dispatch_scans += 1
                    if not state.fair_outstanding:
                        continue
                    task = extra(state)
                    if task is not None:
                        return task
        return None

    # -- progress & termination -------------------------------------------

    def _note_block_completed(self, state: _SegmentUploadState) -> None:
        """Incremental progress accounting after one completed block.

        Availability and reliability of a segment state are monotone
        (blocks complete exactly once, and a reliable state has no fair
        work left that could later mark it degraded), so per-file
        countdowns stamped through the segment->files index replace the
        full ``all(...)`` rescan of every file on every block.
        """
        now = self.sim.now
        if self._satisfied_flush:
            # Zero-segment files are vacuously satisfied; stamp them at
            # the first progress check, as the full rescan used to.
            for path in self._satisfied_flush:
                report = self._reports[path]
                report.available_at = now
                report.reliable_at = now
            self._satisfied_flush = []
        if not state.counted_available and state.available:
            state.counted_available = True
            for path in self._state_files[state.record.segment_id]:
                self._pending_available[path] -= 1
                if self._pending_available[path] == 0:
                    report = self._reports[path]
                    if report.available_at is None:
                        report.available_at = now
        if not state.counted_reliable and state.reliable:
            state.counted_reliable = True
            for path in self._state_files[state.record.segment_id]:
                self._pending_reliable[path] -= 1
                if self._pending_reliable[path] == 0:
                    report = self._reports[path]
                    if report.reliable_at is None:
                        report.reliable_at = now

    def _refresh_file_reports(self, final: bool = False) -> None:
        """Full-scan progress stamping; now only the batch-final pass
        (stragglers with no completed blocks, degraded flags)."""
        for file in self._files:
            report = self._reports[file.path]
            states = self._file_segments[file.path]
            if report.available_at is None and all(
                s.available for s in states
            ):
                report.available_at = self.sim.now
            if report.reliable_at is None and all(
                s.reliable for s in states
            ):
                report.reliable_at = self.sim.now
            if final:
                report.degraded = any(s.degraded for s in states)

    def _bump_block_count(self, state: _SegmentUploadState,
                          cloud_id: str) -> None:
        for path in self._state_files[state.record.segment_id]:
            counts = self._reports[path].blocks_per_cloud
            counts[cloud_id] = counts.get(cloud_id, 0) + 1

    def _note_failure(self, cloud_id: str, fatal: bool = False) -> bool:
        """Count a failure; returns True once the cloud is declared dead.

        ``fatal`` failures (fail-fast / give-up classification) jump the
        counter straight to the death threshold — the batch must not
        keep probing a cloud whose errors cannot succeed on retry.
        """
        was_dead = self._is_dead(cloud_id)
        if fatal:
            self._dead[cloud_id] = max(
                self._dead[cloud_id], self.config.cloud_failure_threshold
            )
        else:
            self._dead[cloud_id] += 1
        if not was_dead and self._is_dead(cloud_id):
            for state in self._states.values():
                state.abandon_cloud(cloud_id)
            # Abandoned fair queues refilled the extras pool across the
            # whole batch; every cursor must rescan from the start.
            self._rewind_cursors(0)
            return True
        return self._is_dead(cloud_id)

    def _is_dead(self, cloud_id: str) -> bool:
        return self._dead.get(cloud_id, 0) >= self.config.cloud_failure_threshold

    def _done(self) -> bool:
        if self._inflight_total > 0:
            return False
        return all(
            self._next_task(cid, peek=True) is None for cid in self.cloud_ids
        )

    def _pulse(self) -> None:
        slots = self._parked
        if slots:
            self._parked = []
            self.sim.call_later(0.0, lambda: self._dispatch(slots))

    # -- crash modelling -----------------------------------------------------

    def abort(self) -> None:
        """Stop dispatching: idle slots retire at once, busy workers
        exit after their current transfer resolves (soft shutdown)."""
        self._aborted = True
        self._pulse()

    def kill_workers(self) -> None:
        """Hard-stop every worker where it stands (client power loss).

        In-flight transfers never complete client-side: a block whose
        upload generator dies mid-payload was never acknowledged, so it
        is *not* recorded in metadata or the journal — exactly the
        orphan/loss window a crash leaves in reality.
        """
        self._aborted = True
        for proc in self._workers:
            proc.kill()
        self._workers = []
        if self._live and not self._finished.triggered:
            self._retire(self._live)


# ---------------------------------------------------------------------------
# Download scheduling
# ---------------------------------------------------------------------------


class _SegmentDownloadState:
    """Book-keeping for one segment being fetched."""

    def __init__(self, record: SegmentRecord):
        self.record = record
        self.k = record.k
        self.blocks: Dict[int, bytes] = {}
        self.inflight: Dict[int, str] = {}
        self.exhausted: set = set()  # (index, cloud) pairs that failed
        # Hedged-fetch bookkeeping (only populated when the degradation
        # control plane is on): dispatch time of each in-flight fetch,
        # its killable child process, and the set of slow in-flight
        # indices already hedged (one hedge per slow fetch).
        self.inflight_since: Dict[int, float] = {}
        self.inflight_proc: Dict[int, object] = {}
        self.hedged: set = set()
        # Dispatch bookkeeping (see DownloadScheduler._next_ready):
        # position in the flattened scan order (the ready heaps' key),
        # the clouds whose dispatcher parked this segment until its
        # next mutation, the per-cloud block-index lists frozen at
        # batch start (locations do not change mid-download), and the
        # progress-counter flag.
        self.position = 0
        self.parked: List[str] = []
        self.cloud_indices: Dict[str, List[int]] = {}
        self.counted_complete = False

    @property
    def complete(self) -> bool:
        return len(self.blocks) >= self.k

    @property
    def saturated(self) -> bool:
        """True when no further request should be issued."""
        return len(self.blocks) + len(self.inflight) >= self.k

    def candidate_index(self, cloud_id: str) -> Optional[int]:
        for index in self.record.blocks_on(cloud_id):
            if index in self.blocks or index in self.inflight:
                continue
            if (index, cloud_id) in self.exhausted:
                continue
            return index
        return None

    def candidate_for(self, cloud_id: str) -> Tuple[Optional[int], bool]:
        """Like :meth:`candidate_index`, plus permanence information.

        Returns ``(index, exhausted)``: ``exhausted`` is True when every
        block this cloud holds is already fetched or failed — a
        *permanent* condition (both sets only grow), letting the
        dispatcher drop this state for this cloud for good.  An index
        blocked only by an in-flight request is temporary: the flight
        resolves to fetched, failed or cancelled, and that mutation
        re-queues the state.
        """
        pending = False
        for index in self.cloud_indices.get(cloud_id, ()):
            if index in self.blocks or (index, cloud_id) in self.exhausted:
                continue
            if index in self.inflight:
                pending = True
                continue
            return index, False
        return None, not pending


class DownloadScheduler:
    """Schedules one batch of file downloads from the multi-cloud."""

    def __init__(
        self,
        sim: Simulator,
        connections: Sequence[CloudAPI],
        pipeline: BlockPipeline,
        config: UniDriveConfig,
        estimator: Optional[ThroughputEstimator] = None,
        dynamic: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        rng=None,
        trace_ctx=None,
        tenant: Optional[str] = None,
        degrade: Optional[DegradeController] = None,
        budget: Optional[DeadlineBudget] = None,
    ):
        if not connections:
            raise ValueError("need at least one cloud connection")
        self.sim = sim
        self.connections = list(connections)
        self.pipeline = pipeline
        self.config = config
        self.estimator = estimator or ThroughputEstimator()
        self.dynamic = dynamic
        self.retry = retry_policy or RetryPolicy.from_config(config)
        self.rng = rng
        self.trace_ctx = trace_ctx
        self.tenant = tenant
        # Degradation control plane (None = disabled, the default).
        self._degrade = degrade
        self._budget = budget
        self._aborted = False
        self._hedge_budget: Optional[float] = None
        #: Hedge accounting for benchmarks and acceptance tests.
        self.hedges_fired = 0
        self.hedged_bytes = 0
        #: Wall-clock (virtual) duration of every successful block
        #: fetch in the last batch — the p99 input for the hedging
        #: benchmark.  Cancelled losers do not appear.
        self.fetch_latencies: List[float] = []
        self._files: List[FileDownload] = []
        self._reports: Dict[str, FileDownloadReport] = {}
        self._states: Dict[str, _SegmentDownloadState] = {}
        self._file_segments: Dict[str, List[_SegmentDownloadState]] = {}
        self._inflight_total = 0
        self._dead: Dict[str, int] = {}
        self._failed_requests = 0
        self._wake = None
        # Dispatch structures (see _next_ready): segments in scan
        # order, each cloud's heap of ready scan positions, the
        # positions each cloud parked on a defer verdict together with
        # the faster-cloud set that verdict was computed under, and the
        # segments with a fetch in flight (the hedge candidates).
        self._ordered: List[_SegmentDownloadState] = []
        self._state_files: Dict[str, List[str]] = {}
        self._holders: List[str] = []
        self._ready: Dict[str, List[int]] = {}
        self._deferred: Dict[str, set] = {}
        self._faster: Dict[str, Tuple[str, ...]] = {}
        self._flying: Dict[int, _SegmentDownloadState] = {}
        self._pending_complete: Dict[str, int] = {}
        self._complete_flush: List[str] = []
        self._dispatch_scans = 0  # state visits, for the perf harness

    def run_batch(self, files: Sequence[FileDownload]):
        """Fetch a batch; generator returns a :class:`DownloadBatchReport`.

        Files that cannot be reconstructed (too many clouds down) finish
        with ``content=None`` rather than blocking the batch.
        """
        started = self.sim.now
        self._files = list(files)
        self._reports = {}
        self._states = {}
        self._file_segments = {}
        self._inflight_total = 0
        self._dead = {c.cloud_id: 0 for c in self.connections}
        self._failed_requests = 0
        self._aborted = False
        self._hedge_budget = None
        self.hedges_fired = 0
        self.hedged_bytes = 0
        self.fetch_latencies = []
        self._wake = self.sim.event()
        self._ordered = []
        self._state_files = {}
        self._complete_flush = []
        self._dispatch_scans = 0
        cloud_ids = [c.cloud_id for c in self.connections]
        # Positions are appended in increasing order, so each ready
        # list starts out a valid heap.
        self._ready = {cid: [] for cid in cloud_ids}
        self._deferred = {cid: set() for cid in cloud_ids}
        self._faster = {}
        self._flying = {}
        holders = dict.fromkeys(cloud_ids)
        for file in self._files:
            self._reports[file.path] = FileDownloadReport(
                path=file.path, size=file.size, started_at=self.sim.now
            )
            states = []
            for record in file.segments:
                state = self._states.get(record.segment_id)
                if state is None:
                    state = _SegmentDownloadState(record)
                    state.position = len(self._ordered)
                    self._states[record.segment_id] = state
                    self._ordered.append(state)
                    self._state_files[record.segment_id] = []
                    holders.update(
                        dict.fromkeys(record.locations.values())
                    )
                    for cid in cloud_ids:
                        indices = record.blocks_on(cid)
                        if indices:
                            state.cloud_indices[cid] = indices
                            self._ready[cid].append(state.position)
                files_of = self._state_files[record.segment_id]
                if file.path not in files_of:
                    files_of.append(file.path)
                states.append(state)
            self._file_segments[file.path] = states
        self._holders = list(holders)
        self._pending_complete = {}
        for file in self._files:
            unique = {id(s) for s in self._file_segments[file.path]}
            self._pending_complete[file.path] = len(unique)
            if not unique:
                self._complete_flush.append(file.path)
        if self._degrade is not None and self._degrade.hedging:
            # Hedge traffic is capped as a fraction of the batch's
            # expected fetch volume (k blocks per unique segment).
            expected = sum(
                s.k * self.pipeline.block_size(s.record)
                for s in self._ordered
            )
            self._hedge_budget = (
                self.config.hedge_bytes_fraction * expected
            )
        workers = []
        for conn in self._ranked_connections():
            for _slot in range(self.config.connections_per_cloud):
                workers.append(self.sim.process(self._worker(conn)))
        if workers:
            yield AllOf(self.sim, workers)
        for file in self._files:
            report = self._reports[file.path]
            states = self._file_segments[file.path]
            if all(s.complete for s in states):
                contents = [
                    self.pipeline.decode_segment(s.record, s.blocks)
                    for s in states
                ]
                report.content = self.pipeline.assemble_file(contents)
                if report.completed_at is None:
                    report.completed_at = self.sim.now
        return DownloadBatchReport(
            files=[self._reports[f.path] for f in self._files],
            started_at=started,
            finished_at=self.sim.now,
            failed_requests=self._failed_requests,
        )

    def _ranked_connections(self) -> List[CloudAPI]:
        """Fastest clouds first so their workers ask first (paper §6.2)."""
        if not self.dynamic:
            return list(self.connections)
        order = self.estimator.rank(
            [c.cloud_id for c in self.connections], DOWNLOAD
        )
        by_id = {c.cloud_id: c for c in self.connections}
        return [by_id[cid] for cid in order]

    def _worker(self, conn: CloudAPI):
        cloud_id = conn.cloud_id
        while True:
            if (
                self._budget is not None
                and not self._aborted
                and self._budget.expired
            ):
                # Round deadline reached: stop dispatching and let the
                # batch wind down; unfinished files report content=None
                # and the client degrades or aborts the round cleanly.
                self.abort()
            if self._aborted:
                return
            pick = self._next_request(cloud_id)
            hedge = False
            eta = None
            if (
                pick is None
                and self._degrade is not None
                and self._degrade.hedging
            ):
                pick, eta = self._next_hedge(cloud_id)
                hedge = pick is not None
            if pick is None:
                if self._done():
                    return
                if eta is not None and eta > self.sim.now:
                    # An in-flight fetch becomes hedge-eligible at a
                    # known future instant; park on whichever of
                    # (progress pulse, eligibility) fires first.
                    yield AnyOf(
                        self.sim,
                        [self._wake,
                         self.sim.timeout(eta - self.sim.now)],
                    )
                else:
                    yield self._wake
                continue
            state, index = pick
            # Entry bookkeeping happens here — not inside _fetch_block —
            # so another worker scanning between dispatch and the child
            # process's first step can never double-pick the index.
            state.inflight[index] = cloud_id
            state.inflight_since[index] = self.sim.now
            self._inflight_total += 1
            self._touch(state)
            if self._degrade is None:
                yield from self._fetch_block(conn, state, index)
            else:
                self._degrade.note_dispatch(cloud_id, self.sim.now)
                proc = self.sim.process(
                    self._fetch_block(conn, state, index, hedge=hedge)
                )
                state.inflight_proc[index] = proc
                yield proc

    def abort(self) -> None:
        """Stop issuing new requests; in-flight transfers drain."""
        self._aborted = True
        self._pulse()

    def _next_hedge(self, cloud_id: str):
        """Find a hedge-worthy block for an otherwise idle connection.

        A segment is hedge-worthy when one of its in-flight fetches (on
        another cloud) has outrun its estimator-predicted duration by
        ``hedge_latency_factor`` and this cloud holds a spare index of
        the same segment (any k of n reconstruct, so fetching a
        *different* index races the slow fetch).  Returns
        ``(pick, eta)``: ``pick`` is ``(state, index)`` to dispatch now
        or None; ``eta`` is the earliest sim time any current fetch
        becomes hedge-eligible, letting the worker park on a timeout
        instead of only on the progress pulse.
        """
        if self._hedge_budget is None:
            return None, None
        if self._dead.get(cloud_id, 0) >= self.config.cloud_failure_threshold:
            return None, None
        if not self._degrade.admits(cloud_id, self.sim.now):
            return None, None
        now = self.sim.now
        eta = None
        for position in sorted(self._flying):
            state = self._flying[position]
            if state.complete:
                continue
            index, _exhausted = state.candidate_for(cloud_id)
            if index is None:
                continue
            nbytes = self.pipeline.block_size(state.record)
            if self.hedged_bytes + nbytes > self._hedge_budget:
                continue
            for slow_index, holder in state.inflight.items():
                if holder == cloud_id or slow_index in state.hedged:
                    continue
                since = state.inflight_since.get(slow_index)
                if since is None:
                    continue
                threshold = self._degrade.hedge_threshold(
                    self.estimator.estimate(holder, DOWNLOAD), nbytes
                )
                if threshold is None:
                    continue
                ready_at = since + threshold
                if now >= ready_at:
                    state.hedged.add(slow_index)
                    self.hedged_bytes += nbytes
                    self.hedges_fired += 1
                    # The outrun fetch is itself a probe: the holder
                    # has moved at most ``nbytes`` in ``now - since``
                    # seconds, so fold that throughput ceiling into
                    # the estimator.  _defer_to_faster then steers new
                    # picks away from the slow cloud instead of
                    # burning the hedge budget rediscovering it one
                    # block at a time — without it, every cancelled
                    # loser frees a worker that immediately picks
                    # another doomed-slow block on a stale estimate.
                    self.estimator.record(
                        holder, DOWNLOAD, nbytes, now - since, now=now
                    )
                    if OBS.enabled:
                        OBS.inc("hedged_fetch", cloud=cloud_id)
                    return (state, index), None
                if eta is None or ready_at < eta:
                    eta = ready_at
        return None, eta

    def _cancel_losers(self, state: _SegmentDownloadState) -> None:
        """A segment just completed: kill its still-racing fetches
        (the hedge loser, or the outrun primary) so no further virtual
        time or bandwidth is spent on redundant blocks."""
        for proc in list(state.inflight_proc.values()):
            if proc.is_alive:
                proc.kill()

    def _fetch_block(self, conn: CloudAPI, state: _SegmentDownloadState,
                     index: int, hedge: bool = False):
        """Fetch one block of ``state`` from ``conn``, settling all
        scheduler bookkeeping on every exit path.

        Entry bookkeeping (inflight maps, the in-flight total) is done
        by the dispatching worker *before* this generator first runs,
        because with degradation enabled it executes as a killable
        child process that starts one event later.  The ``finally``
        clause settles the books when a hedge win kills the fetch
        mid-flight; it contains no yields, so :meth:`Process.kill`
        runs it to completion.
        """
        cloud_id = conn.cloud_id
        path = self.pipeline.block_path(state.record, index)
        start = self.sim.now
        span = block_ctx = None
        if OBS.enabled:
            span, block_ctx = OBS.begin(
                "transfer", t=start, track=cloud_id, ctx=self.trace_ctx,
                dir=DOWNLOAD, seg=state.record.segment_id[:12],
                block=index, attempt=self._dead[cloud_id] + 1,
            )
            if hedge and span is not None:
                span.attrs["hedge"] = True
        settled = False
        try:
            try:
                block = yield from conn.download(path, ctx=block_ctx)
            except CloudError as exc:
                settled = True
                self._inflight_total -= 1
                self._failed_requests += 1
                state.inflight.pop(index, None)
                state.inflight_since.pop(index, None)
                state.inflight_proc.pop(index, None)
                state.exhausted.add((index, cloud_id))
                self._touch(state)
                self.estimator.record_failure(
                    cloud_id, DOWNLOAD, now=self.sim.now
                )
                # Classification: an unavailable cloud is dead for the
                # batch at once (fail fast); a missing block is a
                # deterministic per-(index, cloud) miss, not evidence
                # the cloud died; transients count toward the threshold
                # and pace this connection's next attempt.
                action = self.retry.classify(exc)
                missing = isinstance(exc, NotFoundError)
                if OBS.enabled:
                    OBS.transfer_failed(
                        span, cloud_id, self.sim.now, DOWNLOAD,
                        type(exc).__name__, action, self.tenant,
                        missing=missing,
                    )
                if self._degrade is not None and not missing:
                    self._degrade.on_failure(
                        cloud_id, self.sim.now,
                        fatal=action is not RETRY,
                    )
                if action is not RETRY and not missing:
                    self._dead[cloud_id] = max(
                        self._dead[cloud_id],
                        self.config.cloud_failure_threshold,
                    )
                else:
                    self._dead[cloud_id] += 1
                self._pulse()
                if (action is RETRY and self._dead[cloud_id]
                        < self.config.cloud_failure_threshold):
                    delay = self.retry.backoff(
                        self._dead[cloud_id] - 1, self.rng
                    )
                    if delay > 0:
                        yield from _retry_wait(
                            self.sim, delay, cloud_id, DOWNLOAD, self._dead,
                        )
                return
            settled = True
            self._inflight_total -= 1
            state.inflight_since.pop(index, None)
            state.inflight_proc.pop(index, None)
            expected = state.record.block_hashes.get(index)
            if (
                expected is not None
                and getattr(conn, "retains_content", True)
                and block_hash(block) != expected
            ):
                # Silent corruption: the cloud served bytes that do not
                # match the recorded fingerprint.  Treat exactly like a
                # deterministic per-(index, cloud) miss — mark the pair
                # exhausted (a permanent erasure for this batch) so the
                # dispatcher re-fetches a different replica.
                self._failed_requests += 1
                state.inflight.pop(index, None)
                state.exhausted.add((index, cloud_id))
                self._touch(state)
                self._dead[cloud_id] += 1
                if OBS.enabled:
                    OBS.transfer_corrupt(
                        span, cloud_id, self.sim.now, DOWNLOAD,
                        len(block), self.tenant,
                    )
                if self._degrade is not None:
                    self._degrade.on_failure(cloud_id, self.sim.now)
                self._pulse()
                return
            self._dead[cloud_id] = 0
            if self._degrade is not None:
                self._degrade.on_success(cloud_id, self.sim.now)
            self.estimator.record(
                cloud_id, DOWNLOAD, len(block), self.sim.now - start,
                now=self.sim.now,
            )
            if OBS.enabled:
                _block_done(
                    span, self.estimator, conn, cloud_id, DOWNLOAD,
                    len(block), self.sim.now, self.tenant,
                )
            state.inflight.pop(index, None)
            state.blocks[index] = block
            self._touch(state)
            self.fetch_latencies.append(self.sim.now - start)
            self._note_block_completed(state)
            if self._degrade is not None and state.complete:
                self._cancel_losers(state)
            self._pulse()
        finally:
            if not settled:
                # Killed mid-flight (the other side of the hedge race
                # won): settle the books so _done() and the dispatcher
                # see a consistent world.
                self._inflight_total -= 1
                if state.inflight.get(index) == cloud_id:
                    state.inflight.pop(index, None)
                state.inflight_since.pop(index, None)
                state.inflight_proc.pop(index, None)
                self._touch(state)
                if span is not None:
                    OBS.end(
                        span, t=self.sim.now, error="HedgeCancelled",
                        retry_action="cancelled",
                    )

    def _next_request(self, cloud_id: str):
        """Pick the next (state, block index) for an idle connection,
        or None when this cloud has nothing requestable right now.

        Admission (abort, breaker, dead cloud) is decided here; the
        choice of block is :meth:`_next_ready` in dynamic mode and the
        file-gated reference scan for the static baseline.
        """
        if self._aborted:
            return None
        if self._degrade is not None and not self._degrade.admits(
            cloud_id, self.sim.now
        ):
            # Breaker open or scoreboard-pinned unavailable: no regular
            # dispatch; bounded half-open probes pass through admits().
            return None
        if self._dead.get(cloud_id, 0) >= self.config.cloud_failure_threshold:
            return None
        if not self.dynamic:
            return self._next_request_reference(cloud_id)
        return self._next_ready(cloud_id)

    def _next_ready(self, cloud_id: str):
        """The first segment in scan order this cloud may request from.

        Each cloud keeps a min-heap of the scan positions whose verdict
        is unknown.  Evaluating the head either drops it for good
        (complete, or every block this cloud holds fetched or failed —
        both monotone), *parks* it (candidate only in flight, saturated,
        or deferred to faster clouds), or returns it, leaving it at the
        head.  A parked segment is never evaluated again until an input
        of its verdict changes: its own ``blocks``/``inflight``/
        ``exhausted`` (every mutation site calls :meth:`_touch`), or —
        for a defer verdict — the set of live clouds strictly faster
        than this one, re-derived on entry (while any segment is parked
        on one) so that estimator updates from anywhere (this batch, a
        hedge's outrun probe, another batch sharing the estimator) and
        ``_dead`` flips in either direction are all seen.  The ready
        segments are therefore a superset of the requestable ones, and
        the smallest requestable position is what
        :meth:`_next_request_reference` returns; host work per block is
        O(clouds · log segments) where rescanning the blocked tail was
        O(segments).
        """
        ready = self._ready[cloud_id]
        deferred = self._deferred[cloud_id]
        if deferred and (
            self._faster_clouds(cloud_id) != self._faster[cloud_id]
        ):
            for position in deferred:
                self._ordered[position].parked.remove(cloud_id)
                heappush(ready, position)
            deferred.clear()
        while ready:
            state = self._ordered[ready[0]]
            self._dispatch_scans += 1
            if state.complete:
                heappop(ready)
                continue
            index, exhausted = state.candidate_for(cloud_id)
            if index is None:
                heappop(ready)
                if not exhausted:
                    state.parked.append(cloud_id)
                continue
            if not state.saturated:
                if not self._defer_to_faster(state, cloud_id):
                    return (state, index)
                if not deferred:
                    self._faster[cloud_id] = self._faster_clouds(cloud_id)
                deferred.add(state.position)
            heappop(ready)
            state.parked.append(cloud_id)
        return None

    def _faster_clouds(self, cloud_id: str) -> Tuple[str, ...]:
        """The live clouds whose download estimate strictly beats
        ``cloud_id``'s — with a segment's own state, the only input of
        :meth:`_defer_to_faster` (ties, e.g. two unprobed clouds at
        ``+inf``, are not faster)."""
        threshold = self.config.cloud_failure_threshold
        estimate = self.estimator.estimate
        dead = self._dead
        mine = estimate(cloud_id, DOWNLOAD)
        return tuple(
            holder for holder in self._holders
            if holder != cloud_id
            and dead.get(holder, 0) < threshold
            and estimate(holder, DOWNLOAD) > mine
        )

    def _touch(self, state: _SegmentDownloadState) -> None:
        """``state``'s blocks/inflight/exhausted just changed: re-queue
        it for every cloud that parked it, and keep the in-flight index
        :meth:`_next_hedge` walks in step."""
        position = state.position
        if state.inflight:
            self._flying[position] = state
        else:
            self._flying.pop(position, None)
        for cloud_id in state.parked:
            heappush(self._ready[cloud_id], position)
            self._deferred[cloud_id].discard(position)
        state.parked.clear()

    def _next_request_reference(self, cloud_id: str):
        """The original O(files x segments) scan — the executable
        specification :meth:`_next_ready` must match (the equivalence
        tests swap it in), and still the static baseline's path."""
        if self._dead.get(cloud_id, 0) >= self.config.cloud_failure_threshold:
            return None
        for file in self._files:
            for state in self._file_segments[file.path]:
                self._dispatch_scans += 1
                if state.saturated:
                    continue
                index = state.candidate_index(cloud_id)
                if index is None:
                    continue
                if self.dynamic and self._defer_to_faster(state, cloud_id):
                    continue
                return (state, index)
            if not self.dynamic:
                # Static baseline: strictly finish this file first.
                if not all(
                    s.complete for s in self._file_segments[file.path]
                ):
                    return None
        return None

    def _defer_to_faster(self, state: _SegmentDownloadState,
                         cloud_id: str) -> bool:
        """The paper's sorted assignment: the next block goes to the
        idle connection of the *fastest* cloud.  A slower cloud backs
        off whenever strictly-faster clouds can still supply all the
        blocks this segment is missing."""
        needed = state.k - len(state.blocks) - len(state.inflight)
        mine = self.estimator.estimate(cloud_id, DOWNLOAD)
        faster_supply = 0
        for index, holder in state.record.locations.items():
            if holder == cloud_id:
                continue
            if index in state.blocks or index in state.inflight:
                continue
            if (index, holder) in state.exhausted:
                continue
            if self._dead.get(holder, 0) >= self.config.cloud_failure_threshold:
                continue
            if self.estimator.estimate(holder, DOWNLOAD) > mine:
                faster_supply += 1
        return faster_supply >= needed

    def _note_block_completed(self, state: _SegmentDownloadState) -> None:
        """Incremental completion stamping (replaces the per-block full
        rescan): segment completion is monotone, so per-file countdowns
        through the segment->files index suffice."""
        now = self.sim.now
        if self._complete_flush:
            # Zero-segment files are vacuously complete; stamp them at
            # the first progress check, as the full rescan used to.
            for path in self._complete_flush:
                report = self._reports[path]
                if report.completed_at is None:
                    report.completed_at = now
            self._complete_flush = []
        if not state.counted_complete and state.complete:
            state.counted_complete = True
            for path in self._state_files[state.record.segment_id]:
                self._pending_complete[path] -= 1
                if self._pending_complete[path] == 0:
                    report = self._reports[path]
                    if report.completed_at is None:
                        report.completed_at = now

    def _done(self) -> bool:
        if self._inflight_total > 0:
            return False
        return all(
            self._next_request(c.cloud_id) is None for c in self.connections
        )

    def _pulse(self) -> None:
        wake, self._wake = self._wake, self.sim.event()
        wake.succeed()
