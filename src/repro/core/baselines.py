"""The comparison systems from the paper's evaluation (§7.1).

* :class:`NativeClient` — one CCS's official app.  It moves the whole
  file through a single cloud using that cloud's chunked, multi-
  connection transfer protocol, paying that app's protocol overhead
  (Table 3 reports Dropbox ≈7%, OneDrive ≈2%, …).
* :class:`IntuitiveMultiCloud` — the straw-man: chop a file into N
  pieces and drop piece *i* into cloud *i*'s native sync folder.  Every
  file involves every cloud, so completion is gated by the slowest one
  and overheads add up.
* The **multi-cloud benchmark** (RACS/DepSky-like: erasure coding and
  even static placement, but no over-provisioning or dynamic
  scheduling) is UniDrive's own upload and download schedulers with
  ``over_provision=False, dynamic=False``: the same dispatchers behind
  a *file gate* that serves a file only once every earlier one is
  settled; the thin wrapper here gives it the same call shape as the
  other baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cloud import CloudAPI, CloudError
from ..simkernel import AllOf, Simulator
from .config import UniDriveConfig
from .metadata import SegmentRecord
from .pipeline import BlockPipeline, SyntheticPayload
from .scheduler import (
    DownloadScheduler,
    FileDownload,
    FileUpload,
    UploadScheduler,
)
from .util import gather_safe

__all__ = [
    "NATIVE_CONNECTIONS",
    "NativeClient",
    "IntuitiveMultiCloud",
    "MultiCloudBenchmark",
    "UniDriveTransfer",
    "TransferOutcome",
    "NATIVE_OVERHEAD",
]

#: Effective concurrent transfer connections of each native app.  The
#: paper (§7.1) notes the apps differ widely (Dropbox allows 8 HTTP
#: connections, OneDrive only 2) while UniDrive uses 5 per cloud; these
#: are the effective parallel-transfer counts our model gives them.
NATIVE_CONNECTIONS = {
    "dropbox": 4,
    "onedrive": 2,
    "gdrive": 4,
    "baidupcs": 3,
    "dbank": 2,
}

#: Native app protocol overhead (fraction of payload), from Table 3.
NATIVE_OVERHEAD = {
    "dropbox": 0.0707,
    "onedrive": 0.0204,
    "gdrive": 0.0189,
    "baidupcs": 0.0070,
    "dbank": 0.0096,
}

_DEFAULT_OVERHEAD = 0.02
_NATIVE_CHUNK = 4 * 1024 * 1024


@dataclass
class TransferOutcome:
    """Result of one upload/download through any approach.

    For erasure-coded approaches ``finished_at`` is the *available* time
    (the paper's headline metric, §7.1); ``reliable_at`` additionally
    reports when every cloud had its fair share.
    """

    path: str
    size: int
    started_at: float
    finished_at: Optional[float]
    succeeded: bool
    reliable_at: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class NativeClient:
    """Model of a single CCS's official desktop app.

    Files transfer in fixed-size chunks over up to
    ``connections`` parallel HTTP connections, inflated by the app's
    protocol overhead factor.  Transient failures retry per chunk.
    """

    def __init__(self, sim: Simulator, connection: CloudAPI,
                 connections: Optional[int] = None, max_retries: int = 6,
                 overhead: Optional[float] = None):
        self.sim = sim
        self.connection = connection
        self.cloud_id = connection.cloud_id
        self.parallel = (
            connections
            if connections is not None
            else NATIVE_CONNECTIONS.get(self.cloud_id, 4)
        )
        self.max_retries = max_retries
        self.overhead = (
            overhead
            if overhead is not None
            else NATIVE_OVERHEAD.get(self.cloud_id, _DEFAULT_OVERHEAD)
        )

    def _chunks(self, size: int) -> List[int]:
        sizes = []
        remaining = size
        while remaining > 0:
            take = min(remaining, _NATIVE_CHUNK)
            sizes.append(take)
            remaining -= take
        return sizes or [0]

    def _wire_size(self, nbytes: int) -> int:
        return int(nbytes * (1 + self.overhead))

    def upload(self, path: str, content: bytes):
        """Upload a file; generator returns a :class:`TransferOutcome`."""
        started = self.sim.now
        chunks = self._chunks(len(content))
        done = yield from self._pump(path, chunks, content, upload=True)
        return TransferOutcome(
            path, len(content), started,
            self.sim.now if done else None, done,
        )

    def download(self, path: str, size: int):
        """Fetch a file previously stored by this client."""
        started = self.sim.now
        chunks = self._chunks(size)
        done = yield from self._pump(path, chunks, None, upload=False)
        return TransferOutcome(
            path, size, started, self.sim.now if done else None, done
        )

    def _pump(self, path: str, chunks: List[int], content, upload: bool):
        """Move all chunks with bounded parallelism and retries."""
        results: List[bool] = []

        def one(index: int, nbytes: int):
            wire = self._wire_size(nbytes)
            chunk_path = f"{path}.part{index}"
            payload = None
            if upload:
                offset = sum(chunks[:index])
                payload = content[offset:offset + nbytes]
                payload += b"\x00" * (wire - nbytes)  # protocol framing
            for _attempt in range(self.max_retries):
                try:
                    if upload:
                        yield from self.connection.upload(chunk_path, payload)
                    else:
                        yield from self.connection.download(chunk_path)
                    return True
                except CloudError:
                    continue
            return False

        pending = list(enumerate(chunks))
        active = []
        while pending or active:
            while pending and len(active) < self.parallel:
                index, nbytes = pending.pop(0)
                active.append(self.sim.process(one(index, nbytes)))
            finished = yield AllOf(self.sim, active)
            results.extend(finished)
            active = []
        return all(results)


class IntuitiveMultiCloud:
    """Chunk a file into N pieces; each native app syncs one piece.

    Completion requires *every* cloud, so the slowest dominates — the
    behaviour Figure 11 shows for the "intuitive" bars.
    """

    def __init__(self, sim: Simulator, natives: Sequence[NativeClient]):
        if not natives:
            raise ValueError("need at least one native client")
        self.sim = sim
        self.natives = list(natives)

    def upload(self, path: str, content: bytes):
        started = self.sim.now
        n = len(self.natives)
        piece = -(-len(content) // n) if content else 0
        outcomes = yield from gather_safe(
            self.sim,
            [
                native.upload(
                    f"{path}.piece{i}",
                    content[i * piece:(i + 1) * piece],
                )
                for i, native in enumerate(self.natives)
            ],
        )
        ok = all(ok and out.succeeded for ok, out in outcomes)
        return TransferOutcome(
            path, len(content), started, self.sim.now if ok else None, ok
        )

    def download(self, path: str, size: int):
        started = self.sim.now
        n = len(self.natives)
        piece = -(-size // n) if size else 0
        sizes = [
            max(0, min(piece, size - i * piece)) for i in range(n)
        ]
        outcomes = yield from gather_safe(
            self.sim,
            [
                native.download(f"{path}.piece{i}", sizes[i])
                for i, native in enumerate(self.natives)
            ],
        )
        ok = all(ok and out.succeeded for ok, out in outcomes)
        return TransferOutcome(
            path, size, started, self.sim.now if ok else None, ok
        )


class MultiCloudBenchmark:
    """RACS/DepSky-style striping: coded, even, static — no dynamics.

    Same erasure code and placement math as UniDrive, with
    over-provisioning and dynamic scheduling switched off; the measured
    gap to UniDrive isolates the contribution of those two techniques.
    """

    OVER_PROVISION = False
    DYNAMIC = False

    def __init__(self, sim: Simulator, connections: Sequence[CloudAPI],
                 config: UniDriveConfig, estimator=None):
        self.sim = sim
        self.connections = list(connections)
        self.config = config
        self.pipeline = BlockPipeline(config, len(self.connections))
        self.estimator = estimator
        self._records: Dict[str, list] = {}

    def _uploader(self) -> UploadScheduler:
        return UploadScheduler(
            self.sim, self.connections, self.pipeline, self.config,
            estimator=self.estimator,
            over_provision=self.OVER_PROVISION, dynamic=self.DYNAMIC,
        )

    def _downloader(self) -> DownloadScheduler:
        return DownloadScheduler(
            self.sim, self.connections, self.pipeline, self.config,
            estimator=self.estimator, dynamic=self.DYNAMIC,
        )

    @staticmethod
    def _upload_outcome(path: str, size: int, batch) -> TransferOutcome:
        report = batch.report_for(path)
        return TransferOutcome(
            path, size, batch.started_at,
            report.available_at, report.available_at is not None,
            reliable_at=report.reliable_at,
        )

    def upload(self, path: str, content: bytes):
        segments = [
            (self.pipeline.make_record(seg), seg.data)
            for seg in self.pipeline.segment_file(content)
        ]
        batch = yield from self._uploader().run_batch(
            [FileUpload(path=path, segments=segments)]
        )
        self._records[path] = [record for record, _ in segments]
        return self._upload_outcome(path, len(content), batch)

    def upload_sized(self, path: str, size: int):
        """Upload ``size`` bytes of synthetic content (fleet trials).

        Same scheduler, placement, retry and traffic accounting as
        :meth:`upload`, but the payload is a
        :class:`~repro.core.pipeline.SyntheticPayload`: segments are
        fixed ``theta``-size spans (content-defined chunking is
        meaningless without content) and blocks are shared zero
        buffers, so the host-side cost per upload is O(blocks) instead
        of O(bytes).  Upload-only: the path is *not* recorded for
        later :meth:`download`.
        """
        theta = max(1, self.config.theta)
        spans = [theta] * (size // theta)
        tail = size - theta * len(spans)
        if tail or not spans:
            spans.append(tail)
        serial = self._synthetic_serial = getattr(
            self, "_synthetic_serial", 0
        ) + 1
        segments = []
        for index, span in enumerate(spans):
            record = SegmentRecord(
                segment_id=f"syn-{serial:08d}-{index}",
                size=span,
                n=self.pipeline.n,
                k=self.pipeline.k,
            )
            segments.append((record, SyntheticPayload(span)))
        batch = yield from self._uploader().run_batch(
            [FileUpload(path=path, segments=segments)]
        )
        return self._upload_outcome(path, size, batch)

    def upload_batch(self, items):
        """Upload many (path, content) pairs in one scheduled batch."""
        files = []
        for path, content in items:
            segments = [
                (self.pipeline.make_record(seg), seg.data)
                for seg in self.pipeline.segment_file(content)
            ]
            self._records[path] = [record for record, _ in segments]
            files.append(FileUpload(path=path, segments=segments))
        batch = yield from self._uploader().run_batch(files)
        return batch

    def download(self, path: str, size: int = 0):
        records = self._records.get(path)
        if records is None:
            raise KeyError(f"{path} was not uploaded through this client")
        batch = yield from self._downloader().run_batch(
            [FileDownload(path=path, segments=records)]
        )
        report = batch.report_for(path)
        return TransferOutcome(
            path, report.size, batch.started_at,
            report.completed_at, report.content is not None,
        )

    def download_batch(self, paths):
        """Fetch many previously-uploaded paths in one scheduled batch."""
        wants = [
            FileDownload(path=path, segments=self._records[path])
            for path in paths
        ]
        batch = yield from self._downloader().run_batch(wants)
        return batch


class UniDriveTransfer(MultiCloudBenchmark):
    """UniDrive's data plane as a bare transfer client.

    Same erasure code and placement as the benchmark, with
    over-provisioning and dynamic scheduling enabled — used by the
    micro-benchmarks (Figures 8-12), which measure raw transfer rather
    than full folder synchronization.
    """

    OVER_PROVISION = True
    DYNAMIC = True
