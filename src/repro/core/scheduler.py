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
segment, and a slower cloud defers to the faster clouds that would
finish a block no later than it and can still supply a segment.  Under
a degradation controller, an otherwise idle connection hedges a fetch
that outran its predicted duration.

Both directions run on one connection-slot core (:class:`_SlotScheduler`,
DESIGN.md "Connection slots"): a batch has ``connections_per_cloud``
slots per cloud, an idle slot parks in a FIFO, every completion or
failure gives the parked slots one dispatch step, and a worker process
exists only while its slot holds a transfer.

Setting ``over_provision=False`` and ``dynamic=False`` turns the
scheduler into the RACS/DepSky-style **multi-cloud benchmark** baseline
the paper compares against: the same dispatchers behind a *file gate*,
so files are served strictly in order, with no late over-provisioning
and no deferring to faster clouds.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cloud import CloudAPI, CloudError, NotFoundError
from ..obs import OBS
from ..simkernel import Simulator
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
# The connection-slot core
# ---------------------------------------------------------------------------


class _Slot:
    """One connection slot: its connection and the worker process that
    last held it."""

    __slots__ = ("conn", "cloud_id", "proc")

    def __init__(self, conn: CloudAPI):
        self.conn = conn
        self.cloud_id = conn.cloud_id
        self.proc = None


class _SlotScheduler:
    """What both directions share (DESIGN.md "Connection slots").

    A batch has ``connections_per_cloud`` slots per connection.  A slot
    is parked (an entry in a FIFO), held by a running ``_worker`` process
    (transferring or backing off), or retired.  A worker pulls its next
    task inline when its transfer resolves; every completion or failure
    is a *pulse* that gives the slots parked before it one dispatch
    step.  The batch completes two hops after the last slot retires.

    A direction supplies the policy: ``_state_for`` and ``_report``
    (indexing), ``_next_task`` (a cloud's pick; ``peek`` commits
    nothing), ``_next`` (an idle slot's pick), ``_can_act`` (whether it
    may find one), ``_worker`` (one slot's transfers) and ``_settled``
    (the static baseline's file gate).
    """

    #: Report attributes a per-file countdown stamps (see _reached).
    _MILESTONES: Tuple[str, ...] = ()

    def __init__(self, sim, connections, pipeline, config, estimator,
                 dynamic, retry_policy, rng, trace_ctx, tenant, degrade,
                 budget):
        if not connections:
            raise ValueError("need at least one cloud connection")
        self.sim = sim
        self.connections = list(connections)
        self.cloud_ids = [c.cloud_id for c in self.connections]
        self.pipeline = pipeline
        self.config = config
        self.estimator = estimator or ThroughputEstimator()
        self.dynamic = dynamic
        # Unified failure policy: classifies errors (fail-fast vs
        # transient) and paces re-dispatch after transient failures.
        # rng=None keeps the backoff schedule deterministic.
        self.retry = retry_policy or RetryPolicy()
        self.rng = rng
        # Trace-correlation ancestry for this batch's transfer spans and
        # tenant identity for per-tenant SLO accounting; both optional
        # and inert unless the respective hub is enabled.
        self.trace_ctx = trace_ctx
        self.tenant = tenant
        # Degradation control plane (a client always passes its own;
        # None for the paper's bare transfer engine): the breaker gate
        # in _admits and the per-round deadline budget.
        self._degrade = degrade
        self._budget = budget
        self._slots: List[_Slot] = []
        self._parked: List[_Slot] = []
        self._live = 0
        self._finished = None
        self._begin(())

    # -- the batch index ---------------------------------------------------

    def _begin(self, files) -> None:
        """Reset the per-batch state and index ``files``: segment states
        in first-occurrence scan order (``position``), the segment ->
        files index, each file's end position (the file gate's steps)
        and the per-file milestone countdowns."""
        self._files = list(files)
        self._reports: Dict[str, object] = {}
        self._states: Dict[str, object] = {}
        self._file_segments: Dict[str, list] = {}
        self._ordered: list = []
        self._state_files: Dict[str, List[str]] = {}
        self._file_ends: List[int] = []
        self._gate = 0
        self._inflight_total = 0
        self._waits = 0  # workers sitting out a back-off (see _done)
        self._held = False
        self._dead = {cid: 0 for cid in self.cloud_ids}
        self._failed_requests = 0
        self._dispatch_scans = 0  # state visits, for the perf harness
        self._slot_visits = 0  # slots a dispatch step asked, likewise
        self._aborted = False
        for file in self._files:
            self._reports[file.path] = self._report(file)
            states = []
            for item in file.segments:
                state = self._state_for(item)
                files_of = self._state_files[state.record.segment_id]
                if file.path not in files_of:
                    files_of.append(file.path)
                states.append(state)
            self._file_segments[file.path] = states
            self._file_ends.append(len(self._ordered))
        self._pending = {attr: {} for attr in self._MILESTONES}
        self._empty_files: List[str] = []
        for file in self._files:
            unique = len({id(s) for s in self._file_segments[file.path]})
            for pending in self._pending.values():
                pending[file.path] = unique
            if not unique:
                self._empty_files.append(file.path)

    def _add_state(self, state) -> None:
        state.position = len(self._ordered)
        self._states[state.record.segment_id] = state
        self._ordered.append(state)
        self._state_files[state.record.segment_id] = []

    # -- progress ----------------------------------------------------------

    def _flush_empty(self) -> None:
        """Zero-segment files are vacuously at every milestone; stamp
        them at the first progress check, as the full rescan used to."""
        if self._empty_files:
            now = self.sim.now
            for path in self._empty_files:
                report = self._reports[path]
                for attr in self._MILESTONES:
                    if getattr(report, attr) is None:
                        setattr(report, attr, now)
            self._empty_files = []

    def _reached(self, state, attr: str) -> None:
        """``state`` just reached the milestone ``attr`` stamps.

        Milestones are monotone, so per-file countdowns through the
        segment -> files index replace a rescan of every file on every
        block."""
        pending = self._pending[attr]
        for path in self._state_files[state.record.segment_id]:
            pending[path] -= 1
            if pending[path] == 0:
                report = self._reports[path]
                if getattr(report, attr) is None:
                    setattr(report, attr, self.sim.now)

    # -- admission, failures, the file gate --------------------------------

    def _admits(self, cloud_id: str) -> bool:
        """Regular dispatch to ``cloud_id``: not after an abort, not to a
        dead cloud, and not while its breaker is open — the fix for the
        degraded-cloud retry burn, where every fresh batch used to grant
        a known-bad cloud a full paced retry budget.  Half-open probes
        pass through ``admits()`` bounded by the probe quota."""
        if self._aborted:
            return False
        if self._degrade is not None and not self._degrade.admits(
            cloud_id, self.sim.now
        ):
            return False
        return not self._is_dead(cloud_id)

    def _is_dead(self, cloud_id: str) -> bool:
        return self._dead.get(cloud_id, 0) >= self.config.cloud_failure_threshold

    def _note_failure(self, cloud_id: str, fatal: bool = False) -> bool:
        """Count a failure; returns True once the cloud is dead.

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
        dead = self._is_dead(cloud_id)
        if dead and not was_dead:
            self._cloud_died(cloud_id)
        return dead

    def _cloud_died(self, cloud_id: str) -> None:
        """Hook: ``cloud_id`` was just declared dead for this batch."""

    def _limit(self) -> int:
        """End of the scan positions the dispatchers may serve.

        Dynamic mode serves them all.  The static baseline serves only
        those below the *file gate*: the end position of the first file
        not yet ``_settled``, so files go strictly in order.  The gate
        advances here, lazily; a direction whose files can unsettle
        moves it back.
        """
        if self.dynamic:
            return len(self._ordered)
        ends = self._file_ends
        while (self._gate < len(ends)
               and self._settled(self._files[self._gate].path)):
            self._gate += 1
        if self._gate < len(ends):
            return ends[self._gate]
        return len(self._ordered)

    def _done(self) -> bool:
        """Whether an idle slot may retire: nothing in flight and no
        cloud has a pick.  Not while a worker sits out a back-off and a
        breaker refuses a cloud: the breaker may half-open by the time
        the wait ends, and the refused cloud's work (behind the file
        gate, every cloud's) would then find its slots retired.  The
        slot stays parked (``_held``) and the end of the wait pulses."""
        if self._inflight_total > 0 or any(
            self._next_task(cid, peek=True) is not None
            for cid in self.cloud_ids
        ):
            return False
        self._held = bool(
            self._waits and self._degrade is not None
            and self._degrade.refusing(self.cloud_ids, self.sim))
        return not self._held

    # -- per-request accounting --------------------------------------------

    def _succeeded(self, conn: CloudAPI, direction: str, nbytes: int,
                   start: float, span, redundant: bool = False) -> None:
        """Account one completed request: reset the cloud's failure
        count and feed the breaker and the estimator; the obs hub also
        gets the estimator's view of the link next to its true rate."""
        cloud_id, now = conn.cloud_id, self.sim.now
        self._dead[cloud_id] = 0
        if self._degrade is not None:
            self._degrade.on_success(cloud_id, now)
        self.estimator.record(cloud_id, direction, nbytes, now - start,
                              now=now)
        if OBS.enabled:
            engine = getattr(
                conn, "uplink" if direction == UPLOAD else "downlink", None
            )
            bandwidth = getattr(engine, "bandwidth", None)
            estimate = true_rate = None
            if bandwidth is not None:
                true_rate = bandwidth.rate_at(now)
                estimate = self.estimator.estimate(cloud_id, direction)
            OBS.transfer_done(span, cloud_id, now, direction, nbytes,
                              self.tenant, redundant, estimate, true_rate)

    def _failed(self, cloud_id: str, direction: str, exc: CloudError,
                span) -> Tuple[str, bool]:
        """Account one failed request; returns ``(action, dead)``.

        Classification: an unavailable (or quota-exhausted) cloud is
        dead for the batch at once — re-probing it burns the
        unavailability timeout per attempt with no chance of success; a
        missing block is a deterministic per-(index, cloud) miss, not
        evidence the cloud died; transients count toward the threshold.
        """
        now = self.sim.now
        self._failed_requests += 1
        self.estimator.record_failure(cloud_id, direction, now=now)
        action = self.retry.classify(exc)
        missing = isinstance(exc, NotFoundError)
        if OBS.enabled:
            OBS.transfer_failed(span, cloud_id, now, direction,
                                type(exc).__name__, action, self.tenant,
                                missing=missing)
        fatal = action is not RETRY and not missing
        if self._degrade is not None and not missing:
            self._degrade.on_failure(cloud_id, now, fatal=fatal)
        return action, self._note_failure(cloud_id, fatal=fatal)

    def _back_off(self, cloud_id: str, direction: str):
        """Sit out a transient failure's back-off before this
        connection's next attempt."""
        delay = self.retry.backoff(self._dead[cloud_id] - 1, self.rng)
        if delay > 0:
            wait = None
            if OBS.enabled:
                wait, _ = OBS.begin(
                    "retry_wait", t=self.sim.now, track=cloud_id,
                    dir=direction, attempt=self._dead[cloud_id],
                )
            self._waits += 1  # (a kill here aborts: _done is not asked)
            yield self.sim.timeout(delay)
            self._waits -= 1
            if self._held:  # slots stayed parked for this wait: ask them
                self._held = False
                self._pulse()
            if wait is not None:
                OBS.end(wait, t=self.sim.now)

    # -- connection slots --------------------------------------------------

    def _run_slots(self, conns: Sequence[CloudAPI]):
        """Park every slot, give them one dispatch step, and wait until
        the last one retires."""
        self._slots = [_Slot(conn) for conn in conns
                       for _ in range(self.config.connections_per_cloud)]
        self._parked = list(self._slots)
        self._live = len(self._slots)
        self._finished = self.sim.event()
        self._pulse()
        yield self._finished

    def _claim(self, slot: _Slot):
        """An idle slot's decision: its next task, or park or retire it."""
        if (self._budget is not None and not self._aborted
                and self._budget.expired):
            # Round deadline reached: stop dispatching; the batch winds
            # down with whatever already landed (brownout debt, files
            # with content=None, or a SyncError pick it up upstream).
            self.abort()
        if not self._aborted:
            task = self._next(slot)
            if task is not None:
                return task
            if not self._done():
                self._parked.append(slot)
                return None
        self._retire(1)
        return None

    def _wakes(self, cloud_id: str) -> bool:
        """Whether asking a parked ``cloud_id`` slot may do more than
        re-park it: always while a slot may retire (abort, deadline,
        nothing in flight), else the exact verdict ``_can_act``."""
        return (self._aborted or not self._inflight_total
                or (self._budget is not None and self._budget.expired)
                or self._can_act(cloud_id))

    def _dispatch(self, slots: List[_Slot]) -> None:
        """Give the slots parked before this pulse their wake-up.

        Asks, in park order, only the slots whose cloud ``_wakes`` and
        re-parks the others unasked where an ask would have.  A cloud's
        verdict is taken at its first slot, so its breaker clock check
        runs where that slot's ask would; an empty ask changes nothing
        another ask reads, so it turns the verdict off; a task start may
        let any cloud act (a settled file moves the gate, a spent
        half-open probe refuses its cloud), so it drops every verdict."""
        if not self._live:
            return  # kill_workers retired every slot
        verdicts: Dict[str, bool] = {}
        for position, slot in enumerate(slots):
            cloud_id = slot.cloud_id
            wakes = verdicts.get(cloud_id)
            if wakes is None:
                wakes = verdicts[cloud_id] = self._wakes(cloud_id)
            if not wakes:
                self._parked.append(slot)
                continue
            self._slot_visits += 1
            live = self._live
            task = self._claim(slot)
            if task is not None:
                # Inline: it draws from an RNG the later slots share.
                slot.proc = self.sim.start(self._worker(slot, task))
                slot.proc.add_callback(self._worker_exit)
                verdicts.clear()
            elif self._live < live:
                # Retired: nothing changed since, so the rest would too.
                if position + 1 < len(slots):
                    self._retire(len(slots) - position - 1)
                return
            else:
                verdicts[cloud_id] = False

    def _retire(self, count: int) -> None:
        self._live -= count
        if self._live == 0:
            # Two hops after the last retire: the batch's completion
            # instant and order are part of every golden.
            self.sim.call_later(0.0, self._finished.succeed)

    def _worker_exit(self, proc) -> None:
        """A failing worker fails the batch."""
        if not proc.ok and not self._finished.triggered:
            proc.defused = True
            self._finished.fail(proc.value)

    def _pulse(self) -> None:
        slots = self._parked
        if slots:
            self._parked = []
            self.sim.call_later(0.0, lambda: self._dispatch(slots))

    def abort(self) -> None:
        """Stop dispatching: idle slots retire at once, busy workers
        exit after their current transfer resolves (soft shutdown)."""
        self._aborted = True
        self._pulse()


# ---------------------------------------------------------------------------
# Upload scheduling
# ---------------------------------------------------------------------------


class _SegmentUploadState:
    """Book-keeping for one unique segment within a batch."""

    def __init__(self, record: SegmentRecord, data: bytes,
                 cloud_ids: Sequence[str], config: UniDriveConfig):
        self.record = record
        self.data = data
        # Dispatch bookkeeping (see UploadScheduler._next_ready): the
        # position in the batch's first-occurrence scan order (the ready
        # heaps' key) and the (cloud, phase) pairs that parked this
        # segment until a mutation that can unpark it.
        self.position = 0
        self.parked: List[Tuple[str, int]] = []
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
        self.record.write(locations={**self.record.locations, index: cloud_id})
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
        self.record.write(locations={**self.record.locations, index: cloud_id})
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


class UploadScheduler(_SlotScheduler):
    """Schedules one batch of file uploads over the multi-cloud."""

    _MILESTONES = ("available_at", "reliable_at")

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
        self.over_provision = over_provision
        self.on_block_uploaded = on_block_uploaded
        # Journal resume: segment_id -> {index: cloud_id} of blocks a
        # previous (crashed) round already landed; they are credited as
        # uploaded at batch start and never re-transferred.
        self.resume = resume or {}
        super().__init__(sim, connections, pipeline, config, estimator,
                         dynamic, retry_policy, rng, trace_ctx, tenant,
                         degrade, budget)

    # -- public API -------------------------------------------------------

    def run_batch(self, files: Sequence[FileUpload]):
        """Upload a batch; generator returns an :class:`UploadBatchReport`."""
        started = self.sim.now
        # Each cloud's ready heaps (see _next_ready), one per phase: late
        # over-provisioning only runs in dynamic mode.  Positions are
        # appended in increasing order, so each starts out a valid heap.
        phases = 3 if self.over_provision and self.dynamic else 2
        self._ready: Dict[str, List[List[int]]] = {
            cid: [[] for _ in range(phases)] for cid in self.cloud_ids
        }
        self._begin(files)
        if self.resume:
            # Preseeded blocks count as completed progress right away
            # (countdowns, availability stamps) — they just never
            # re-transfer.
            for state in self._ordered:
                if state.uploaded:
                    self._note_block_completed(state)
        yield from self._run_slots(self.connections)
        self.pipeline.release(self._states)
        self._refresh_file_reports(final=True)
        return UploadBatchReport(
            files=[self._reports[f.path] for f in self._files],
            started_at=started,
            finished_at=self.sim.now,
            failed_requests=self._failed_requests,
        )

    def _report(self, file: FileUpload) -> FileUploadReport:
        return FileUploadReport(
            path=file.path, size=file.size, started_at=self.sim.now,
            blocks_per_cloud={cid: 0 for cid in self.cloud_ids},
        )

    def _state_for(self, item) -> _SegmentUploadState:
        record, data = item
        state = self._states.get(record.segment_id)
        if state is None:
            state = _SegmentUploadState(record, data, self.cloud_ids,
                                        self.config)
            for idx, cid in sorted(
                self.resume.get(record.segment_id, {}).items()
            ):
                if cid in self.cloud_ids:
                    state.preseed(idx, cid)
            self._add_state(state)
            for heaps in self._ready.values():
                for heap in heaps:
                    heap.append(state.position)
        return state

    def _next(self, slot: _Slot) -> Optional[_UploadTask]:
        return self._next_task(slot.cloud_id)

    def _worker(self, slot: _Slot, task: _UploadTask):
        conn, cloud_id = slot.conn, slot.cloud_id
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
            hashes = state.record.block_hashes
            if index not in hashes:
                state.record.write(block_hashes={**hashes, index: digest})
            path = self.pipeline.block_path(state.record.segment_id, index)
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
                _action, dead = self._failed(cloud_id, UPLOAD, exc, span)
                state.fail(index, cloud_id, task.is_fair, cloud_dead=dead)
                self._touch(state)
                self._pulse()
                if not dead:
                    yield from self._back_off(cloud_id, UPLOAD)
                task = self._claim(slot)
                continue
            self._inflight_total -= 1
            self._succeeded(conn, UPLOAD, len(block), start, span,
                            redundant=not task.is_fair)
            state.complete(index, cloud_id, task.is_fair)
            if task.is_fair:
                self._touch(state, completed_by=cloud_id)
            if self.on_block_uploaded is not None:
                self.on_block_uploaded(
                    state.record.segment_id, index, cloud_id
                )
            self._note_block_completed(state)
            self._bump_block_count(state, cloud_id)
            self._pulse()
            task = self._claim(slot)

    # -- dispatch policy ----------------------------------------------------

    def _can_act(self, cloud_id: str) -> bool:
        # Exact: _next_task's pick, which commits nothing; _admits() is
        # the ask's breaker clock check.
        return (self._admits(cloud_id)
                and self._next_ready(cloud_id) is not None)

    def _next_task(self, cloud_id: str, peek: bool = False):
        """Pick the next block for a cloud and, unless ``peek``, commit
        it: an :class:`_UploadTask`, the uncommitted ``(state,
        is_fair)`` when peeking, or None."""
        if not self._admits(cloud_id):
            return None
        pick = self._next_ready(cloud_id)
        if pick is None or peek:
            return pick
        state, is_fair = pick
        if self._degrade is not None:
            self._degrade.note_dispatch(cloud_id, self.sim.now)
        index = (state.take_fair(cloud_id) if is_fair
                 else state.take_extra(cloud_id))
        return _UploadTask(state, index, is_fair)

    def _next_ready(self, cloud_id: str):
        """The paper's upload order for one cloud, as ``(state,
        is_fair)``: the first segment in scan order, below the limit,
        with a pick in the first phase that has one.

        0. *Availability-first*: a segment not yet available — a fair
           block, or once this cloud's fair share of it is done (and
           over-provisioning is on), an extra.
        1. *Reliability-second*: a fair block still queued.
        2. *Late over-provisioning* (dynamic mode only): an extra,
           while slower clouds still owe fair shares of the segment
           (stop once the slowest cloud finished its share, §6.2).

        Each cloud keeps one min-heap of scan positions per phase.
        Evaluating a head either drops it for good (available; this
        cloud's fair share done; no fair work left anywhere — each
        monotone), returns it, leaving it at the head, or *parks* it
        until :meth:`_touch`: every other input of a verdict (the
        cloud's fair queue and cap room, its fair progress, the extras
        pool) changes toward a pick only where the state is touched —
        a failure, a fair completion, a cloud's death.  The smallest
        position with a pick is therefore what a scan of every segment
        in order returns.
        """
        limit = self._limit()
        ordered = self._ordered
        for phase, ready in enumerate(self._ready[cloud_id]):
            while ready and ready[0] < limit:
                state = ordered[ready[0]]
                self._dispatch_scans += 1
                if phase == 0:
                    gone = state.available
                    is_fair = state.fair_pending(cloud_id)
                    can = is_fair or (self.over_provision
                                      and state.fair_done(cloud_id)
                                      and bool(state.extras))
                elif phase == 1:
                    gone = state.fair_done(cloud_id)
                    is_fair = can = state.fair_pending(cloud_id)
                else:
                    gone = not state.fair_outstanding
                    is_fair = False
                    can = state.fair_done(cloud_id) and bool(state.extras)
                if not gone:
                    if can and state.cap_room(cloud_id):
                        return state, is_fair
                    state.parked.append((cloud_id, phase))
                heappop(ready)
        return None

    def _touch(self, state: _SegmentUploadState,
               completed_by: Optional[str] = None) -> None:
        """A failure or a dead cloud's abandoned queue just changed
        ``state``: re-queue it for every (cloud, phase) that parked it.
        A failure may re-queue a fair share and so unsettle the files
        holding ``state``: the file gate moves back too.  A fair
        completion by ``completed_by`` moves only that cloud's fair
        progress, so only its pairs re-queue, and the gate stays (a
        completion re-queues no fair share)."""
        position = state.position
        if completed_by is not None:
            kept = []
            for cloud_id, phase in state.parked:
                if cloud_id == completed_by:
                    heappush(self._ready[cloud_id][phase], position)
                else:
                    kept.append((cloud_id, phase))
            state.parked = kept
            return
        for cloud_id, phase in state.parked:
            heappush(self._ready[cloud_id][phase], position)
        state.parked.clear()
        self._gate = min(self._gate, bisect_right(self._file_ends, position))

    def _settled(self, path: str) -> bool:
        """A file the static baseline is done with: every segment
        available and no fair share queued (in-flight ones may fail
        and re-queue, which moves the gate back)."""
        return self._pending["available_at"][path] == 0 and not any(
            state.any_fair_pending() for state in self._file_segments[path]
        )

    def _cloud_died(self, cloud_id: str) -> None:
        for state in self._states.values():
            state.abandon_cloud(cloud_id)
            self._touch(state)

    # -- progress & termination -------------------------------------------

    def _note_block_completed(self, state: _SegmentUploadState) -> None:
        """Incremental progress accounting after one completed block.

        Availability and reliability of a segment state are monotone
        (blocks complete exactly once, and a reliable state has no fair
        work left that could later mark it degraded).
        """
        self._flush_empty()
        if not state.counted_available and state.available:
            state.counted_available = True
            self._reached(state, "available_at")
        if not state.counted_reliable and state.reliable:
            state.counted_reliable = True
            self._reached(state, "reliable_at")

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

    # -- crash modelling -----------------------------------------------------

    def kill_workers(self) -> None:
        """Hard-stop every worker where it stands (client power loss).

        In-flight transfers never complete client-side: a block whose
        upload generator dies mid-payload was never acknowledged, so it
        is *not* recorded in metadata or the journal — exactly the
        orphan/loss window a crash leaves in reality.
        """
        self._aborted = True
        for slot in self._slots:
            if slot.proc is not None:
                slot.proc.kill()
        if self._live and not self._finished.triggered:
            self._retire(self._live)

# ---------------------------------------------------------------------------
# Download scheduling
# ---------------------------------------------------------------------------


class _SegmentDownloadState:
    """Book-keeping for one segment being fetched."""

    def __init__(self, record: SegmentRecord, block_size: int):
        self.record = record
        self.k = record.k
        self.block_size = block_size  # bytes in each of its blocks
        self.blocks: Dict[int, bytes] = {}
        self.inflight: Dict[int, str] = {}
        self.exhausted: set = set()  # (index, cloud) pairs that failed
        # The slot of each in-flight fetch (a completed segment kills
        # the workers of its still-racing fetches), and the in-flight
        # indices an idle slot hedged: they race on, but no longer
        # count toward the k the segment needs.
        self.inflight_slot: Dict[int, _Slot] = {}
        self.hedged: set = set()
        # Dispatch bookkeeping (see DownloadScheduler._next_ready):
        # position in the flattened scan order (the ready heaps' key),
        # the clouds whose dispatcher parked this segment until a
        # mutation that can unpark it, the block-index lists frozen at
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
        """True when no further request should be issued: k blocks are
        fetched or in flight, not counting hedged fetches."""
        return (len(self.blocks) + len(self.inflight) - len(self.hedged)
                >= self.k)

    def settle(self, index: int) -> None:
        """The fetch of ``index`` resolved: it neither flies nor races."""
        self.inflight.pop(index, None)
        self.inflight_slot.pop(index, None)
        self.hedged.discard(index)

    def candidate_for(self, cloud_id: str) -> Tuple[Optional[int], bool]:
        """The first block index this cloud holds that is neither
        fetched, in flight nor failed, plus permanence information.

        Returns ``(index, exhausted)``: ``exhausted`` is True when every
        block this cloud holds is already fetched or failed — a
        *permanent* condition (both sets only grow), letting the
        dispatcher drop this state for this cloud for good.  An index
        blocked only by an in-flight request is temporary: a failed or
        cancelled flight re-queues the state, and a landing needs no
        re-queue, since it makes the index fetched for good.
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


class _Cover:
    """All a defer verdict read of its segment (see
    :meth:`DownloadScheduler._defer_to_faster`): the blocks it needs
    and the holder (a bit) of each block it could still fetch from
    F(c), sorted.  One object per distinct cover in a batch, so covers
    key dicts by identity and remember which finisher sets meet them."""

    __slots__ = ("needed", "held", "clouds", "verdicts")

    def __init__(self, needed: int, held: Tuple[int, ...]):
        self.needed = needed
        self.held = held
        self.clouds = 0  # every holder's bit
        for bit in held:
            self.clouds |= bit
        self.verdicts: Dict[int, bool] = {}  # finishers -> met

    def met_by(self, finishers: int) -> bool:
        """Whether ``finishers`` hold the blocks the cover needs."""
        met = self.verdicts.get(finishers)
        if met is None:
            met = self.verdicts[finishers] = sum(
                1 for bit in self.held if bit & finishers) >= self.needed
        return met


class _Deferrals:
    """One cloud's parked defer verdicts, grouped by cover (see
    :meth:`DownloadScheduler._next_ready`): the cover of each deferred
    scan position; per cover, the members to re-queue if it is rejected
    (those not re-queued already) and a heap of ``(block size,
    position)``, whose entries for positions that left the cover are
    skipped where met; the stamp of the last check; and a block no
    member is smaller than."""

    __slots__ = ("where", "covers", "stamp", "least")

    def __init__(self):
        self.where: Dict[int, _Cover] = {}  # position -> its cover
        self.covers: Dict[_Cover, Tuple[set, list]] = {}
        self.stamp: Optional[tuple] = None
        self.least = 0

    def add(self, position: int, cover: _Cover, size: int) -> None:
        if not self.where:  # what is kept describes no member
            self.covers.clear()
            self.least = size
        self.least = min(self.least, size)
        self.where[position] = cover
        members = self.covers.get(cover)
        if members is None:
            members = self.covers[cover] = (set(), [])
        members[0].add(position)
        heappush(members[1], (size, position))

    def keep(self, position: int) -> None:
        """A re-queued member its cover meets again stays deferred."""
        self.covers[self.where[position]][0].add(position)

    def queued(self, position: int) -> bool:
        """Whether a deferred ``position`` sits re-queued."""
        return position not in self.covers[self.where[position]][0]

    def smallest(self, cover: _Cover) -> Optional[int]:
        """The smallest block deferred under ``cover``; None (and the
        cover forgotten) once it has no member."""
        sizes = self.covers[cover][1]
        while sizes and self.where.get(sizes[0][1]) != cover:
            heappop(sizes)
        if sizes:
            return sizes[0][0]
        del self.covers[cover]
        return None

    def reject(self, cover: _Cover) -> List[int]:
        """The members of ``cover`` to re-queue: asked again where the
        dispatcher reaches them, unless the cover is met again by then."""
        members = self.covers[cover][0]
        released = [p for p in members if self.where.get(p) == cover]
        members.clear()
        return released


class DownloadScheduler(_SlotScheduler):
    """Schedules one batch of file downloads from the multi-cloud."""

    _MILESTONES = ("completed_at",)

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
        super().__init__(sim, connections, pipeline, config, estimator,
                         dynamic, retry_policy, rng, trace_ctx, tenant,
                         degrade, budget)
        self._hedge_budget: Optional[float] = None
        self._hedge_seq = count()
        #: Hedge accounting for benchmarks and acceptance tests.
        self.hedges_fired = 0
        self.hedged_bytes = 0
        #: Wall-clock (virtual) duration of every successful block
        #: fetch in the last batch — the p99 input for the hedging
        #: benchmark.  Cancelled losers do not appear.
        self.fetch_latencies: List[float] = []

    def run_batch(self, files: Sequence[FileDownload]):
        """Fetch a batch; generator returns a :class:`DownloadBatchReport`.

        Files that cannot be reconstructed (too many clouds down) finish
        with ``content=None`` rather than blocking the batch.
        """
        started = self.sim.now
        self._hedge_budget = None
        self.hedges_fired = 0
        self.hedged_bytes = 0
        self.fetch_latencies = []
        # Dispatch structures (see _next_ready): each cloud's heap of
        # ready scan positions — positions are appended in increasing
        # order, so each starts out a valid heap — and its deferrals,
        # grouped by cover (clouds as bits; see _defer_to_faster).
        self._ready: Dict[str, List[int]] = {cid: [] for cid in self.cloud_ids}
        self._deferred: Dict[str, _Deferrals] = {
            cid: _Deferrals() for cid in self.cloud_ids}
        self._cover_memo: Dict[tuple, _Cover] = {}
        self._bits = {cid: 1 << i for i, cid in enumerate(self.cloud_ids)}
        self._refused: frozenset = frozenset()
        self._faster_key: Optional[tuple] = None  # see _down_rates
        self._rates: Dict[str, float] = {}
        # Each cloud's fetches in flight by predicted end, and its free
        # instant (see _occupy): None while a connection is idle.
        self._busy: Dict[str, List[float]] = {
            cid: [] for cid in self.cloud_ids}
        self._free: Dict[str, Optional[float]] = dict.fromkeys(self.cloud_ids)
        # How often each cloud may have begun to finish a block later
        # (its estimate fell, or its last idle connection was taken) and
        # how often its estimate rose: the deferred verdicts' stamps.
        self._later: Dict[str, int] = dict.fromkeys(self.cloud_ids, 0)
        self._rises: Dict[str, int] = dict.fromkeys(self.cloud_ids, 0)
        # The hedge index (see _next_hedge): in-flight fetches by the
        # instant each becomes hedge-eligible, the eligible ones in
        # scan order, and the batch's pending hedge timer as
        # ``(instant it is for, kernel due time, callback)``.
        self._hedge_due: List[tuple] = []
        self._hedge_eligible: List[tuple] = []
        self._hedge_timer: Optional[tuple] = None
        self._begin(files)
        sizes = [state.block_size for state in self._ordered] or [0]
        self._block_sizes = (min(sizes), max(sizes))  # see _terms
        if self._degrade is not None and self._degrade.hedging:
            # Hedge traffic is capped as a fraction of the batch's
            # expected fetch volume (k blocks per unique segment).
            expected = sum(s.k * s.block_size for s in self._ordered)
            self._hedge_budget = (
                self.config.hedge_bytes_fraction * expected
            )
        try:
            yield from self._run_slots(self._ranked_connections())
        finally:
            self._disarm_hedge_timer()
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

    def _report(self, file: FileDownload) -> FileDownloadReport:
        return FileDownloadReport(
            path=file.path, size=file.size, started_at=self.sim.now
        )

    def _state_for(self, record: SegmentRecord) -> _SegmentDownloadState:
        state = self._states.get(record.segment_id)
        if state is None:
            state = _SegmentDownloadState(record,
                                          self.pipeline.block_size(record))
            self._add_state(state)
            for cid in self.cloud_ids:
                indices = record.blocks_on(cid)
                if indices:
                    state.cloud_indices[cid] = indices
                    self._ready[cid].append(state.position)
        return state

    def _ranked_connections(self) -> List[CloudAPI]:
        """Fastest clouds first so their slots ask first (paper §6.2)."""
        if not self.dynamic:
            return list(self.connections)
        order = self.estimator.rank(self.cloud_ids, DOWNLOAD)
        by_id = {c.cloud_id: c for c in self.connections}
        return [by_id[cid] for cid in order]

    def _can_act(self, cloud_id: str) -> bool:
        # Exact: a refused or dead cloud gets no request or hedge; any other
        # acts iff a hedge is eligible or _next_ready (commits nothing) has
        # a pick.  refusing() is the ask's breaker clock check.
        if self._degrade is not None:
            self._refused = self._degrade.refusing(self.cloud_ids, self.sim)
        if cloud_id in self._refused or self._is_dead(cloud_id):
            return False
        return bool(self._hedge_eligible) or (
            self._next_ready(cloud_id) is not None)

    def _next(self, slot: _Slot):
        """An idle slot's pick, ``(state, index, hedge)``: a regular
        request, else (hedging armed) a hedge."""
        pick = self._next_task(slot.cloud_id)
        if pick is not None:
            return pick[0], pick[1], False
        if self._hedge_eligible:
            return self._next_hedge(slot.cloud_id)
        return None

    def _worker(self, slot: _Slot, task):
        cloud_id = slot.cloud_id
        while task is not None:
            state, index, hedge = task
            # Entry bookkeeping before the first yield, so that no other
            # slot can pick the index while this fetch is in flight.
            state.inflight[index] = cloud_id
            state.inflight_slot[index] = slot
            self._inflight_total += 1
            if hedge:  # only a hedge can leave a parked defer verdict's
                self._touch(state)  # faster supply short of the need
            if self._degrade is not None:
                self._degrade.note_dispatch(cloud_id, self.sim.now)
            if self._hedge_budget is not None:
                self._watch(state, index, cloud_id)
            yield from self._fetch_block(slot, state, index, hedge)
            task = self._claim(slot)

    # -- hedging -------------------------------------------------------------
    #
    # A fetch becomes hedge-eligible ``HEDGE_LATENCY_FACTOR`` times its
    # estimator-predicted duration after dispatch; the prediction is
    # made once, at dispatch.  Fetches wait in a heap keyed by that
    # instant, and the batch's one hedge timer moves them to the
    # eligible list when it passes, so an idle ask looks at that list
    # only, not at every fetch in flight.  While the heap holds a fetch
    # still in flight, the timer is pending for the earliest one:
    # indexing an earlier one re-arms it, and every tick re-arms it.  A
    # tick that promotes a fetch gives the parked slots a dispatch step.
    # The batch withdraws the timer when it ends, so none outlives it.
    # A fetch that resolved is dropped lazily, where the heap or the
    # list next meets it.

    def _watch(self, state: _SegmentDownloadState, index: int,
               cloud_id: str) -> None:
        """Index a fetch just dispatched by its hedge-eligible instant
        (never, while ``cloud_id`` has no finite download estimate)."""
        threshold = self._degrade.hedge_threshold(
            self.estimator.estimate(cloud_id, DOWNLOAD), state.block_size,
        )
        if threshold is not None:
            now = self.sim.now
            at = now + threshold
            heappush(self._hedge_due, (at, next(self._hedge_seq),
                                       state, index, cloud_id, now))
            if self._hedge_timer is None or at < self._hedge_timer[0]:
                self._arm_hedge_timer()

    def _arm_hedge_timer(self) -> None:
        """Point the batch's hedge timer at the instant the next fetch
        still in flight becomes eligible."""
        due = self._hedge_due
        while due and due[0][2].inflight.get(due[0][3]) != due[0][4]:
            heappop(due)  # resolved before it was due
        if not due or (self._hedge_timer is not None
                       and self._hedge_timer[0] <= due[0][0]):
            return
        self._disarm_hedge_timer()
        at, tick = due[0][0], self._hedge_tick
        when = self.sim.call_later(max(0.0, at - self.sim.now), tick)
        self._hedge_timer = (at, when, tick)

    def _disarm_hedge_timer(self) -> None:
        if self._hedge_timer is not None:
            _at, when, tick = self._hedge_timer
            self.sim.cancel(when, tick)
            self._hedge_timer = None

    def _hedge_tick(self) -> None:
        """The hedge timer: move the fetches now due to the eligible
        list, in scan order (segment position, dispatch), give the
        parked slots a dispatch step if one moved, and re-arm."""
        horizon = max(self._hedge_timer[0], self.sim.now)
        self._hedge_timer = None
        due, promoted = self._hedge_due, False
        while due and due[0][0] <= horizon:
            _at, seq, state, index, holder, since = heappop(due)
            if state.inflight.get(index) == holder:
                insort(self._hedge_eligible,
                       (state.position, seq, state, index, holder, since))
                promoted = True
        if promoted:
            self._pulse()
        self._arm_hedge_timer()

    def _next_hedge(self, cloud_id: str):
        """A hedge for an otherwise idle connection, or None.

        Takes the first eligible fetch, in scan order, that runs on
        another cloud, of a segment this cloud holds a spare index of
        (any k of n reconstruct, so fetching a *different* index races
        the slow fetch), within the batch's hedge byte budget.  Returns
        ``(state, index, True)``.
        """
        eligible = self._hedge_eligible
        now = self.sim.now
        if self._is_dead(cloud_id) or not self._degrade.admits(cloud_id, now):
            return None
        position = 0
        while position < len(eligible):
            _pos, _seq, state, slow_index, holder, since = eligible[position]
            if state.inflight.get(slow_index) != holder:
                del eligible[position]  # resolved since it became due
                continue
            position += 1
            if holder == cloud_id:
                continue
            index, _exhausted = state.candidate_for(cloud_id)
            if index is None:
                continue
            nbytes = state.block_size
            if self.hedged_bytes + nbytes > self._hedge_budget:
                continue
            del eligible[position - 1]  # one hedge per slow fetch
            state.hedged.add(slow_index)
            self.hedged_bytes += nbytes
            self.hedges_fired += 1
            # The outrun fetch is itself a probe: the holder has moved
            # at most ``nbytes`` in ``now - since`` seconds, so fold
            # that throughput ceiling into the estimator.
            # _defer_to_faster then steers new picks away from the slow
            # cloud instead of burning the hedge budget rediscovering
            # it one block at a time — without it, every cancelled
            # loser frees a slot that immediately picks another
            # doomed-slow block on a stale estimate.
            self.estimator.record(
                holder, DOWNLOAD, nbytes, now - since, now=now
            )
            if OBS.enabled:
                OBS.inc("hedged_fetch", cloud=cloud_id)
            return state, index, True
        return None

    def _cancel_losers(self, state: _SegmentDownloadState) -> None:
        """A segment just completed: kill the workers of its
        still-racing fetches (the hedge loser, or the outrun primary)
        so no further virtual time or bandwidth is spent on redundant
        blocks."""
        for slot in list(state.inflight_slot.values()):
            slot.proc.kill()

    def _fetch_block(self, slot: _Slot, state: _SegmentDownloadState,
                     index: int, hedge: bool = False):
        """Fetch one block of ``state`` over ``slot``, settling all
        scheduler bookkeeping on every exit path.

        The ``finally`` clause settles the books and hands the slot
        back when a hedge win kills the worker mid-flight; it contains
        no yields, so :meth:`Process.kill` runs it to completion.
        """
        conn, cloud_id = slot.conn, slot.cloud_id
        path = self.pipeline.block_path(state.record.segment_id, index)
        start = self.sim.now
        end = self._occupy(cloud_id, state)
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
                self._release(cloud_id, end)
                state.settle(index)
                state.exhausted.add((index, cloud_id))
                self._touch(state)
                action, dead = self._failed(cloud_id, DOWNLOAD, exc, span)
                self._pulse()
                if action is RETRY and not dead:
                    yield from self._back_off(cloud_id, DOWNLOAD)
                return
            settled = True
            self._inflight_total -= 1
            self._release(cloud_id, end)
            state.settle(index)
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
                state.exhausted.add((index, cloud_id))
                self._touch(state)
                self._note_failure(cloud_id)
                if OBS.enabled:
                    OBS.transfer_corrupt(
                        span, cloud_id, self.sim.now, DOWNLOAD,
                        len(block), self.tenant,
                    )
                if self._degrade is not None:
                    self._degrade.on_failure(cloud_id, self.sim.now)
                self._pulse()
                return
            self._succeeded(conn, DOWNLOAD, len(block), start, span)
            # No _touch: a landing never turns a parked verdict to a pick.
            state.blocks[index] = block
            self.fetch_latencies.append(self.sim.now - start)
            self._flush_empty()
            if not state.counted_complete and state.complete:
                state.counted_complete = True
                self._reached(state, "completed_at")
                self._cancel_losers(state)
            self._pulse()
        finally:
            if not settled:
                # Killed mid-flight (the other side of the hedge race
                # won): settle the books so _done() and the dispatcher
                # see a consistent world, and hand the slot back for
                # the winner's pulse.
                self._inflight_total -= 1
                self._release(cloud_id, end)
                if state.inflight.get(index) == cloud_id:
                    state.settle(index)
                self._touch(state)
                self._parked.append(slot)
                if span is not None:
                    OBS.end(
                        span, t=self.sim.now, error="HedgeCancelled",
                        retry_action="cancelled",
                    )

    def _next_task(self, cloud_id: str, peek: bool = False):
        """Pick the next ``(state, block index)`` for an idle connection,
        or None when this cloud has nothing requestable right now.  A
        download pick commits nothing, so ``peek`` changes nothing.

        The clouds the controller refuses are taken once per ask: the
        asking cloud must not be one, and no defer verdict counts one
        as a faster supplier."""
        if self._degrade is not None:
            self._refused = self._degrade.refusing(self.cloud_ids, self.sim)
            if cloud_id in self._refused:
                return None
        if self._aborted or self._is_dead(cloud_id):
            return None
        return self._next_ready(cloud_id)

    def _next_ready(self, cloud_id: str):
        """The first segment in scan order, below the limit, this cloud
        may request from.

        Each cloud keeps a min-heap of the scan positions whose verdict
        is unknown.  Evaluating the head either drops it for good
        (complete, or every block this cloud holds fetched or failed —
        both monotone), *parks* it (candidate only in flight, saturated,
        or deferred to faster clouds), or returns it, leaving it at the
        head.  A parked segment is never evaluated again until an input
        of its verdict changes: its own ``blocks``/``inflight``/
        ``exhausted`` (each mutation that can unpark it calls
        :meth:`_touch`), or — for a defer verdict — its finishers.  A
        defer verdict keeps its *cover* (:meth:`_defer_to_faster`), and
        the segment only moves toward a defer between touches, so the
        verdict stays a defer while this cloud's finishers meet the
        cover.  Deferred segments are grouped by cover
        (:class:`_Deferrals`).  When the stamp of the terms moved,
        :meth:`_recheck` re-queues the members of the covers that may
        have stopped being met; where the walk reaches such a member
        whose cover is met again, it stays deferred without being
        asked.  The ready segments are therefore a superset of the
        requestable ones, and the smallest requestable position is what
        a scan of every segment in order would return, in O(clouds ·
        log segments) host work per block.
        """
        ready = self._ready[cloud_id]
        deferred = self._deferred[cloud_id]
        terms = None  # this ask's view of F(c), see _terms
        if deferred.where:
            terms = self._terms(cloud_id)
            if terms[3] != deferred.stamp:
                for position in self._recheck(deferred, terms):
                    heappush(ready, position)
        limit = self._limit()
        while ready and ready[0] < limit:
            state = self._ordered[ready[0]]
            cover = deferred.where.get(state.position)
            if cover is not None:  # re-queued by a rejected cover
                finishers = self._finishers(terms, state.block_size)
                if cover.met_by(finishers):  # met again: still a defer
                    heappop(ready)
                    deferred.keep(state.position)
                    continue
                del deferred.where[state.position]
                state.parked.remove(cloud_id)
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
                terms = terms or self._terms(cloud_id)
                cover = self._defer_to_faster(state, terms)
                if cover is None:
                    return (state, index)
                deferred.add(state.position, cover, state.block_size)
            heappop(ready)
            state.parked.append(cloud_id)
        if deferred.where:
            deferred.stamp = terms[3]
        return None

    def _faster_clouds(self, cloud_id: str) -> Tuple[str, ...]:
        """F(c): the admitted connected clouds whose download estimate
        strictly beats ``cloud_id``'s (ties, e.g. two unprobed clouds at
        ``+inf``, are not faster).  A holder the batch has no connection
        to supplies nothing, so it is never faster.  Memoized over one
        read of each connected cloud's estimate (:meth:`_down_rates`)."""
        rates = self._down_rates()
        faster = self._faster_memo.get(cloud_id)
        if faster is None:
            faster = self._faster_memo[cloud_id] = tuple(
                other for other in self.cloud_ids
                if other != cloud_id and other not in self._refused
                and not self._is_dead(other)
                and rates[other] > rates[cloud_id]
            )
        return faster

    def _down_rates(self) -> Dict[str, float]:
        """Every connected cloud's download estimate, read once until the
        estimator's ``generation``, a failure count or the refused set
        moves (the key of the faster-cloud memo it also resets)."""
        key = (self.estimator.generation, self._refused,
               tuple(self._dead.values()))
        if key != self._faster_key:
            estimate, was = self.estimator.estimate, self._rates
            self._rates = {c: estimate(c, DOWNLOAD) for c in self.cloud_ids}
            for cid, rate in self._rates.items():
                if rate < was.get(cid, rate):
                    self._later[cid] += 1
                elif rate > was.get(cid, rate):
                    self._rises[cid] += 1
            self._faster_key, self._faster_memo = key, {}
        return self._rates

    def _terms(self, cloud_id: str) -> tuple:
        """The per-ask terms of ``cloud_id``'s defer verdicts, clouds as
        bits: F(c); ``(f, wait, gap)`` for each cloud f of F(c) whose
        connections are all busy, with ``wait = free_f - now`` and ``gap
        = 1/est_c - 1/est_f``; the finishers of every block of the batch
        when those of its smallest and largest block agree (None
        otherwise); and the stamp of what they have seen: F(c), how
        often c's estimate rose, and how often each cloud of F(c) may
        have begun to finish later (its estimate fell, or its last idle
        connection was taken).  Nothing else makes a finisher stop
        being one; the clock moving on never does.  The static baseline
        defers to nobody."""
        if not self.dynamic:
            return 0, (), 0, None
        clouds = self._faster_clouds(cloud_id)
        rates, free, bits, later = (self._rates, self._free, self._bits,
                                    self._later)
        faster, busy, now = 0, [], self.sim.now
        inverse = 1 / rates[cloud_id]
        for other in clouds:
            faster |= bits[other]
            if free[other] is not None:
                busy.append((bits[other], free[other] - now,
                             inverse - 1 / rates[other]))
        uniform = faster
        if busy:  # the finishers of the smallest and largest block
            least, most = self._block_sizes
            smallest = largest = faster
            for bit, wait, gap in busy:
                if wait > least * gap:
                    smallest &= ~bit
                if wait > most * gap:
                    largest &= ~bit
            uniform = smallest if smallest == largest else None
        stamp = (clouds, self._rises[cloud_id],
                 tuple(map(later.__getitem__, clouds)))
        return faster, busy, uniform, stamp

    @staticmethod
    def _finishers(terms: tuple, size: int) -> int:
        """The clouds of F(c) (bits) that finish a ``size``-byte block no
        later than c would, starting it now: ``(free_f or now) + size /
        est_f <= now + size / est_c``, evaluated as ``wait <= size *
        gap`` — monotone in the block size, the clock, each free instant
        and each estimate, which the parking of defer verdicts relies
        on.  A cloud with an idle connection always does (it is
        faster)."""
        finishers, busy, uniform = terms[:3]
        if uniform is not None:
            return uniform
        for bit, wait, gap in busy:
            if wait > size * gap:
                finishers &= ~bit
        return finishers

    def _recheck(self, deferred: _Deferrals, terms: tuple) -> List[int]:
        """The stamp moved since ``deferred`` was last checked: reject
        the covers this ask's finishers may have stopped meeting, and
        return their members to re-queue.  Once F(c) changed, that is
        any cover.  Otherwise only a cloud of F(c) that does not finish
        first for the smallest deferred block, and whose estimate fell
        or whose last idle connection was taken since (or any such
        cloud, if c's estimate rose), can have dropped out, so only the
        covers counting one are suspect."""
        stamp, was = terms[3], deferred.stamp
        changed = -1  # every cloud
        if was is not None and stamp[0] == was[0]:
            changed = terms[0] & ~self._finishers(terms, deferred.least)
            if changed and stamp[1] == was[1]:
                moved = 0
                for other, now, then in zip(stamp[0], stamp[2], was[2]):
                    if now != then:
                        moved |= self._bits[other]
                changed &= moved
        if not changed:
            return []
        return [position for cover, (members, _sizes)
                in list(deferred.covers.items())
                if members and cover.clouds & changed
                and not self._still_met(deferred, terms, cover)
                for position in deferred.reject(cover)]

    def _still_met(self, deferred: _Deferrals, terms: tuple,
                   cover: _Cover) -> bool:
        """Whether this ask's finishers meet ``cover`` for its smallest
        block (finishing first is monotone in the block size)."""
        if terms[2] is not None:  # the same for every block
            return cover.met_by(terms[2])
        if cover.met_by(self._finishers(terms, deferred.least)):
            return True
        smallest = deferred.smallest(cover)
        return smallest is None or cover.met_by(
            self._finishers(terms, smallest))

    def _occupy(self, cloud_id: str,
                state: _SegmentDownloadState) -> Optional[float]:
        """A fetch of one of ``state``'s blocks starts on a connection of
        ``cloud_id``: returns its predicted end, ``now + block size /
        estimate``.  Taking the cloud's last idle connection sets its
        free instant to the earliest predicted end in flight.  The
        static baseline predicts nothing."""
        if not self.dynamic:
            return None
        end = self.sim.now + state.block_size / self._down_rates()[cloud_id]
        busy = self._busy[cloud_id]
        busy.append(end)
        if len(busy) == self.config.connections_per_cloud:
            self._free[cloud_id] = min(busy)
            self._later[cloud_id] += 1
        return end

    def _release(self, cloud_id: str, end: Optional[float]) -> None:
        """The fetch :meth:`_occupy` predicted to end at ``end`` settled:
        its connection is idle, so the cloud is free now."""
        if end is not None:
            self._busy[cloud_id].remove(end)
            self._free[cloud_id] = None

    def _touch(self, state: _SegmentDownloadState) -> None:
        """``state``'s blocks/inflight/exhausted just changed: re-queue
        it for every cloud that parked it."""
        position = state.position
        for cloud_id in state.parked:
            deferred = self._deferred[cloud_id]
            if not (position in deferred.where and deferred.queued(position)):
                heappush(self._ready[cloud_id], position)
            deferred.where.pop(position, None)
        state.parked.clear()

    def _defer_to_faster(self, state: _SegmentDownloadState,
                         terms: tuple) -> Optional[_Cover]:
        """The paper's sorted assignment: the next block goes to the
        idle connection of the *fastest* cloud.  A slower cloud c backs
        off when its *finishers* — the clouds of its F(c) (strictly
        faster, neither dead nor refused) that finish a block of this
        segment no later than c would (:meth:`_finishers` of this ask's
        ``terms``) — can still supply all the blocks the segment is
        missing.  While a faster holder has an idle connection this is
        the paper's rule; when all its connections are busy past c's
        own finish, c fetches.  The static baseline has no F(c), so it
        never defers.  Returns None (fetch) or the verdict's cover."""
        faster, bits = terms[0], self._bits
        needed = (state.k - len(state.blocks) - len(state.inflight)
                  + len(state.hedged))
        blocks, inflight, exhausted = (state.blocks, state.inflight,
                                       state.exhausted)
        held = [bit for index, holder in state.record.locations.items()
                if (bit := bits.get(holder, 0) & faster)
                and index not in blocks and index not in inflight
                and not (exhausted and (index, holder) in exhausted)]
        finishers = self._finishers(terms, state.block_size)
        if sum(map(bool, map(finishers.__and__, held))) < needed:
            return None
        held.sort()
        key = (needed, tuple(held))
        cover = self._cover_memo.get(key)
        if cover is None:
            cover = self._cover_memo[key] = _Cover(*key)
        return cover

    def _settled(self, path: str) -> bool:
        """A file the static baseline is done with: every segment
        complete (monotone, so the gate never moves back)."""
        return self._pending["completed_at"][path] == 0
