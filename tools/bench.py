#!/usr/bin/env python
"""Hot-path and simulation-substrate microbenchmarks.

Each measured path is compared against an in-file reimplementation of
the *previous* algorithm.  The ``hotpaths`` suite (results in
``BENCH_hotpaths.json``) covers the codec/chunking/scheduler overhaul:

* ``gf_matmul``   — product-table matmul vs the log/exp + zero-fixup
                    kernel it replaced.
* ``encode``      — cached ``prepare()`` encode vs per-call shard
                    rebuilding with the log/exp kernel (4 MB segments,
                    n >= 10; bars: >= 2.5x speedup and >= 300 MB/s
                    absolute with the fused pair-table kernel).
* ``decode``      — decode throughput (fused pair-table kernel; bar:
                    >= 500 MB/s).
* ``chunking``    — batch ``buzhash_all``; the vectorized streaming
                    ``BuzHashStream`` fed 64 KB chunks over the same
                    bytes (bars: within 1.5x of batch wall clock, cut
                    points identical to the batch segmenter); plus the
                    per-byte ring-buffer ``BuzHash`` vs the O(window)
                    ``pop(0)`` variant it replaced.
* ``dispatch``    — scheduler decision-ladder visits per uploaded block
                    for a small vs a large batch, cursor dispatcher vs
                    the retained reference ladder.  Flat (within 2x)
                    across batch size is the acceptance bar.
* ``end_to_end``  — full upload + download batch sync throughput.

The ``substrate`` suite (results in ``BENCH_substrate.json``) covers
the simulation-substrate overhaul:

* ``bandwidth_epochs``   — chunked/vectorized epoch generation vs the
                           per-epoch scalar rng sampler (bar: >= 5x).
* ``kernel_events``      — event throughput of the slimmed kernel +
                           reusable-timer transfer engine vs the
                           allocation-heavy originals (bar: >= 2x).
* ``campaign_parallel``  — process-pool campaign fan-out vs serial:
                           byte-identical merged results always; >= 3x
                           wall-clock enforced on hosts with >= 4
                           cores; dispatch overhead (pickled submit
                           bytes, submit latency, shared-state blob
                           size) recorded alongside.
* ``trial_rss``          — peak-RSS guard: a cohorted synthetic-payload
                           fleet trial (100k users full, 10k quick) in
                           a child interpreter must stay under the
                           memory ceiling — streaming reduction bounds
                           memory by cohort size, not population.
* ``fastforward``        — analytic fast-forward over fault-free AR(1)
                           epoch boundaries vs event-by-event timers:
                           outcomes must be bit-identical; the event
                           and wall reduction is recorded.

The ``obs`` suite (results in ``BENCH_obs.json``) guards the tracing /
metrics layer's overhead contract:

* ``guards``   — per-call cost of the disabled-mode instrumentation
                 (the one ``if OBS.enabled:`` attribute read and the
                 early-out hub methods), measured against an empty loop.
* ``overhead`` — the end-to-end scheduler batch with tracing disabled
                 vs enabled: results must be byte-identical, and the
                 *estimated* disabled-mode overhead (guard sites hit x
                 per-guard cost / wall) must stay <= 2%.

The ``durability`` suite (results in ``BENCH_durability.json``) guards
the integrity-scrubbing layer added with the self-healing work:

* ``hash_verify`` — the end-to-end download batch with per-block hash
  verification active vs the same batch with the recorded fingerprints
  stripped: contents must be byte-identical, and the *estimated*
  verify cost (fetched blocks x measured per-hash cost / plain wall)
  must stay <= 5% of the download wall clock.  (The bar was 3% before
  the fused data plane landed; the hash cost per block is unchanged —
  at the numpy per-call floor — but the 3-4x faster decode/dispatch
  shrank the denominator.)
* ``scrub``       — deep-audit throughput (blocks hashed per second)
  over a clean folder, plus a damage round (missing + rotted blocks)
  that a single ``scrub_round`` must bring back to a clean audit.

The ``telemetry`` suite (results in ``BENCH_telemetry.json``) guards
the streaming-telemetry layer (windows + health scoreboard + SLO
engine) the same way ``obs`` guards tracing:

* ``guards``   — disabled-mode per-call cost of a fan-out fact on the
                 hub (the same ``if OBS.enabled:`` guard, the early-out
                 named call, the safe-while-disabled query) plus the
                 enabled fan-out unit costs.
* ``overhead``   — the scheduler batch disabled vs telemetry-enabled vs
                   fully instrumented: byte-identical results required,
                   analytic disabled-overhead estimate <= 2% (sites
                   counted exactly by the enabled run).
* ``end_to_end`` — enabled-telemetry cost on a full shared-folder
                   campaign (bar: estimated enabled overhead <= 2% of
                   the plain wall, results identical).

``--quick`` shrinks sizes/rounds for CI smoke use (results still
emitted, bars still checked); ``--budget-seconds`` fails the run when
the wall clock exceeds the CI smoke budget.  ``--compare`` additionally
diffs headline metrics of the fresh run against the committed
``BENCH_*.json`` baselines with a fractional tolerance band and prints
three-valued verdicts (``true``/``false``/``"skipped"``) — an
annotation for trend-watching that never affects the exit status.

Every suite emits a ``checks`` mapping with three-valued entries:
``true`` means the bar was enforced and met, ``false`` means it was
enforced and missed (the run exits nonzero), and ``"skipped"`` means
the bar cannot be enforced in this environment (quick-mode sizes, too
few cores) — the metric is still measured and reported, but no claim
of passing is made.  A check never reports ``true`` without actually
comparing the measured number against its bar.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.chunking.rolling_hash import (  # noqa: E402
    DEFAULT_WINDOW, TABLE, BuzHash, BuzHashStream, _rotl, buzhash_all,
)
from repro.chunking.segmenter import Segmenter  # noqa: E402
from repro.cloud import (  # noqa: E402
    CloudConnection, SimulatedCloud, make_instant_connection,
)
from repro.codec import ReedSolomonCode, gf256  # noqa: E402
from repro.codec import matrix as gfm  # noqa: E402
from repro.core import Scrubber, UniDriveClient  # noqa: E402
from repro.core.config import UniDriveConfig  # noqa: E402
from repro.core.degrade import DegradeController  # noqa: E402
from repro.core.pipeline import BlockPipeline  # noqa: E402
from repro.core.probing import ThroughputEstimator  # noqa: E402
from repro.core.scheduler import (  # noqa: E402
    DownloadScheduler, FileDownload, FileUpload, UploadScheduler,
)
from repro.fsmodel import VirtualFileSystem  # noqa: E402
from repro.netsim import LinkProfile  # noqa: E402
from repro.simkernel import Simulator  # noqa: E402

def _pin_allocator():
    """Stop glibc from trimming/mmapping the multi-MB bench buffers.

    The encode path returns ~14 MB of fresh ``bytes`` per call; with
    default thresholds glibc alternates between serving those from the
    heap and from fresh ``mmap`` regions, and every mmap'd round pays
    page-fault cost that can double the measured wall.  Raising
    ``M_TRIM_THRESHOLD`` and ``M_MMAP_THRESHOLD`` keeps the freed pages
    resident so repeated rounds measure the kernels, not the allocator.
    Benchmark hygiene only — library code never calls this.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: never trim
        libc.mallopt(-3, 64 * _MB)  # M_MMAP_THRESHOLD: reuse the heap
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        pass


_MB = 1024 * 1024
_pin_allocator()
RESULTS_DIR = os.path.join(_ROOT, "benchmarks", "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_hotpaths.json")
SUBSTRATE_RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_substrate.json")
OBS_RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_obs.json")
DURABILITY_RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_durability.json")
TELEMETRY_RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_telemetry.json")
ROBUSTNESS_RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_robustness.json")


def _best_of(fn, rounds):
    """Best-of-N wall time in seconds (minimum is the stable estimator)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- legacy reimplementations (the "before" side) ---------------------------


def matmul_logexp(a, b):
    """The pre-overhaul matmul: log/exp double gather + zero fixup."""
    rows, inner = a.shape
    width = b.shape[1]
    out = np.zeros((rows, width), dtype=np.uint8)
    for i in range(rows):
        for j in range(inner):
            coeff = int(a[i, j])
            if coeff == 0:
                continue
            row = b[j]
            if coeff == 1:
                np.bitwise_xor(out[i], row, out=out[i])
                continue
            prod = gf256.EXP_TABLE[
                int(gf256.LOG_TABLE[coeff]) + gf256.LOG_TABLE[row]
            ].astype(np.uint8, copy=False)
            prod[row == 0] = 0
            np.bitwise_xor(out[i], prod, out=out[i])
    return out


def encode_legacy(code, data):
    """Pre-overhaul encode: shard build + log/exp matmul."""
    shards, size = code._shard_matrix(data)
    encoded = matmul_logexp(code._generator, shards)
    return [encoded[i, :size].tobytes() for i in range(code.n)]


def encode_block_legacy(code, data, index):
    """Pre-overhaul per-block path: full shard rebuild on every call."""
    shards, size = code._shard_matrix(data)
    row = code._generator[index:index + 1]
    return matmul_logexp(row, shards)[0, :size].tobytes()


class BuzHashPopZero:
    """The pre-overhaul streaming hasher: list window + ``pop(0)``."""

    def __init__(self, window=DEFAULT_WINDOW):
        self.window = window
        self._bytes = []
        self._hash = 0

    def update(self, byte):
        self._hash = _rotl(self._hash, 1)
        self._hash ^= int(TABLE[byte])
        self._bytes.append(byte)
        if len(self._bytes) > self.window:
            evicted = self._bytes.pop(0)
            self._hash ^= _rotl(int(TABLE[evicted]), self.window)
        return self._hash


# -- benchmark sections -----------------------------------------------------


def bench_gf_matmul(quick):
    width = (1 if quick else 4) * _MB
    rounds = 2 if quick else 3
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=(10, 3), dtype=np.uint8)
    b = rng.integers(0, 256, size=(3, width), dtype=np.uint8)
    out_mb = a.shape[0] * width / _MB
    t_table = _best_of(lambda: gfm.matmul(a, b), rounds)
    t_logexp = _best_of(lambda: matmul_logexp(a, b), rounds)
    return {
        "shape": [list(a.shape), list(b.shape)],
        "table_mb_per_s": out_mb / t_table,
        "logexp_mb_per_s": out_mb / t_logexp,
        "speedup": t_logexp / t_table,
    }


def bench_encode_decode(quick):
    seg = (1 if quick else 4) * _MB
    # This section carries absolute-throughput guards (300 / 500 MB/s),
    # so it gets extra rounds: best-of-N needs a few samples to shake
    # off scheduler jitter on virtualized hosts.
    rounds = 2 if quick else 12
    code = ReedSolomonCode(10, 3)
    data = np.random.default_rng(1).integers(
        0, 256, size=seg, dtype=np.uint8
    ).tobytes()

    t_new = _best_of(lambda: code.encode(data), rounds)
    t_old = _best_of(lambda: encode_legacy(code, data), rounds)

    def cached_blocks():
        state = code.prepare(data)
        for index in range(code.n):
            state.block(index)

    def legacy_blocks():
        for index in range(code.n):
            encode_block_legacy(code, data, index)

    t_blocks_new = _best_of(cached_blocks, rounds)
    t_blocks_old = _best_of(legacy_blocks, rounds)

    blocks = code.encode(data)
    subset = {0: blocks[0], 4: blocks[4], 9: blocks[9]}
    t_decode = _best_of(lambda: code.decode(subset, seg), rounds)

    mb = seg / _MB
    return {
        "segment_mb": mb,
        "n": code.n,
        "k": code.k,
        "encode_mb_per_s": mb / t_new,
        "encode_legacy_mb_per_s": mb / t_old,
        "encode_speedup": t_old / t_new,
        "encode_blocks_cached_mb_per_s": mb / t_blocks_new,
        "encode_blocks_legacy_mb_per_s": mb / t_blocks_old,
        "encode_blocks_speedup": t_blocks_old / t_blocks_new,
        "decode_mb_per_s": mb / t_decode,
    }


def bench_chunking(quick):
    size = (2 if quick else 8) * _MB
    rounds = 2 if quick else 3
    data = np.random.default_rng(2).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()
    t_batch = _best_of(lambda: buzhash_all(data), rounds)

    # Vectorized streaming hasher fed 64 KB (network-sized) chunks over
    # the *same* bytes as the batch run, so the two walls compare
    # directly — ``run_all`` holds streaming within 1.5x of batch.
    feed = 64 * 1024

    def stream_ring():
        hasher = BuzHashStream()
        for off in range(0, size, feed):
            hasher.feed(data[off:off + feed])

    t_ring = _best_of(stream_ring, rounds)

    # Cut identity: the streaming segmenter under irregular feed splits
    # must cut exactly where the batch segmenter cuts.
    segmenter = Segmenter(theta=CONFIG.theta)
    batch_ids = [seg.segment_id for seg in segmenter.split(data)]
    stream = segmenter.stream()
    stream_ids = []
    split_rng = np.random.default_rng(3)
    off = 0
    while off < size:
        step = int(split_rng.integers(1, 192 * 1024))
        stream_ids += [
            seg.segment_id for seg in stream.feed(data[off:off + step])
        ]
        off += step
    stream_ids += [seg.segment_id for seg in stream.finish()]

    # Legacy per-byte twins, over a slice (orders of magnitude slower).
    byte_bytes = 64 * 1024 if quick else 256 * 1024
    byte_data = data[:byte_bytes]

    def stream_byte():
        hasher = BuzHash()
        for byte in byte_data:
            hasher.update(byte)

    def stream_pop0():
        hasher = BuzHashPopZero()
        for byte in byte_data:
            hasher.update(byte)

    t_byte = _best_of(stream_byte, rounds)
    t_pop0 = _best_of(stream_pop0, rounds)
    return {
        "batch_mb_per_s": size / _MB / t_batch,
        "stream_ring_mb_per_s": size / _MB / t_ring,
        "stream_vs_batch": t_ring / t_batch,
        "stream_cuts_identical": stream_ids == batch_ids,
        "stream_byte_mb_per_s": byte_bytes / _MB / t_byte,
        "stream_pop0_mb_per_s": byte_bytes / _MB / t_pop0,
        "stream_speedup": t_pop0 / t_byte,
    }


# -- scheduler + end-to-end -------------------------------------------------

CONFIG = UniDriveConfig(theta=64 * 1024)
N_CLOUDS = 5


#: The paper's skewed regime (downlink Mbps per cloud), where slow
#: clouds defer most of their candidates to faster ones.
SKEWED_MBPS = (5.0, 10.0, 20.0, 40.0, 80.0)


def _make_env(seed=0, down_mbps=(40.0,) * N_CLOUDS):
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"cloud{i}") for i in range(N_CLOUDS)]
    conns = [
        CloudConnection(
            sim, cloud,
            LinkProfile(
                up_mbps=down / 2, down_mbps=down, rtt_seconds=0.05,
                latency_jitter=0.0, failure_rate=0.0, volatility=0.0,
                fade_probability=0.0, diurnal_amplitude=0.0,
            ),
            np.random.default_rng(seed + i),
        )
        for i, (cloud, down) in enumerate(zip(clouds, down_mbps))
    ]
    pipeline = BlockPipeline(CONFIG, N_CLOUDS)
    return sim, conns, pipeline


def _make_files(pipeline, count, file_kb=96, seed=4):
    rng = np.random.default_rng(seed)
    files = []
    for i in range(count):
        content = rng.integers(
            0, 256, size=file_kb * 1024, dtype=np.uint8
        ).tobytes()
        segments = [
            (pipeline.make_record(segment), segment.data)
            for segment in pipeline.segment_file(content)
        ]
        files.append(FileUpload(path=f"/f{i}", segments=segments))
    return files


def _run_upload(count, reference):
    sim, conns, pipeline = _make_env()
    scheduler = UploadScheduler(
        sim, conns, pipeline, CONFIG, estimator=ThroughputEstimator()
    )
    if reference:
        scheduler._next_task = scheduler._next_task_reference
    files = _make_files(pipeline, count)
    start = time.perf_counter()
    batch = sim.run_process(scheduler.run_batch(files))
    elapsed = time.perf_counter() - start
    blocks = sum(
        sum(r.blocks_per_cloud.values()) for r in batch.files
    )
    return {
        "files": count,
        "blocks": blocks,
        "scans": scheduler._dispatch_scans,
        "scans_per_block": scheduler._dispatch_scans / blocks,
        "wall_seconds": elapsed,
        "blocks_per_s": blocks / elapsed,
    }


def _run_download(count):
    """Fetch ``count`` one-segment files back over skewed links."""
    sim, conns, pipeline = _make_env(down_mbps=SKEWED_MBPS)
    estimator = ThroughputEstimator()
    files = _make_files(pipeline, count)
    up = UploadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    sim.run_process(up.run_batch(files))
    down = DownloadScheduler(sim, conns, pipeline, CONFIG,
                             estimator=estimator)
    requests = [
        FileDownload(f.path, [record for record, _ in f.segments])
        for f in files
    ]
    start = time.perf_counter()
    batch = sim.run_process(down.run_batch(requests))
    elapsed = time.perf_counter() - start
    assert all(r.content is not None for r in batch.files)
    blocks = len(down.fetch_latencies)
    return {
        "segments": sum(len(f.segments) for f in files),
        "blocks": blocks,
        "scans": down._dispatch_scans,
        "scans_per_block": down._dispatch_scans / blocks,
        "wall_seconds": elapsed,
        "blocks_per_s": blocks / elapsed,
    }


def bench_dispatch(quick):
    small, large = (10, 40) if quick else (10, 200)
    down_small, down_large = (10, 160) if quick else (10, 640)
    out = {
        "download_small": _run_download(down_small),
        "download_large": _run_download(down_large),
        "cursor_small": _run_upload(small, reference=False),
        "cursor_large": _run_upload(large, reference=False),
        "reference_small": _run_upload(small, reference=True),
        "reference_large": _run_upload(large, reference=True),
    }
    out["cursor_flatness"] = (
        out["cursor_large"]["scans_per_block"]
        / out["cursor_small"]["scans_per_block"]
    )
    out["download_flatness"] = (
        out["download_large"]["scans_per_block"]
        / out["download_small"]["scans_per_block"]
    )
    out["reference_growth"] = (
        out["reference_large"]["scans_per_block"]
        / out["reference_small"]["scans_per_block"]
    )
    out["scans_per_block_improvement_large"] = (
        out["reference_large"]["scans_per_block"]
        / out["cursor_large"]["scans_per_block"]
    )
    return out


def bench_end_to_end(quick):
    count = 20 if quick else 60
    sim, conns, pipeline = _make_env(seed=9)
    estimator = ThroughputEstimator()
    up = UploadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    files = _make_files(pipeline, count, seed=11)
    payload_mb = sum(
        len(data) for f in files for _, data in f.segments
    ) / _MB

    start = time.perf_counter()
    sim.run_process(up.run_batch(files))
    down = DownloadScheduler(sim, conns, pipeline, CONFIG,
                             estimator=estimator)
    requests = [
        FileDownload(f.path, [record for record, _ in f.segments])
        for f in files
    ]
    batch = sim.run_process(down.run_batch(requests))
    elapsed = time.perf_counter() - start

    assert all(r.content is not None for r in batch.files)
    return {
        "files": count,
        "payload_mb": payload_mb,
        "wall_seconds": elapsed,
        "files_per_s": 2 * count / elapsed,  # one upload + one download each
        "payload_mb_per_s": 2 * payload_mb / elapsed,
    }


# -- substrate suite: legacy twins ------------------------------------------
#
# Faithful in-file copies of the pre-overhaul substrate, retained as the
# "before" side of the substrate benchmarks: the per-epoch scalar
# bandwidth sampler, the dict-based always-allocating event kernel, and
# the Timeout-plus-lambda transfer timer.

import heapq  # noqa: E402
import itertools  # noqa: E402
import math  # noqa: E402

from repro.netsim import MBPS, TransferEngine  # noqa: E402
from repro.netsim.bandwidth import BandwidthProcess  # noqa: E402
from repro.netsim.transfer import _EPSILON_BYTES  # noqa: E402


class LegacyBandwidthProcess:
    """Pre-overhaul sampler: one epoch per ``_extend_to`` iteration,
    three scalar rng round-trips each, list-of-floats cache."""

    def __init__(self, rng, mean_rate, volatility=0.5, ar_coefficient=0.8,
                 epoch=60.0, fade_probability=0.02, fade_depth=8.0):
        self.mean_rate = mean_rate
        self.volatility = volatility
        self.ar = ar_coefficient
        self.epoch = epoch
        self.fade_probability = fade_probability
        self.fade_depth = fade_depth
        self._rng = rng
        self._phase = rng.uniform(0, 2 * math.pi)
        self._innovation_scale = volatility * math.sqrt(
            1 - ar_coefficient**2
        )
        self._multipliers = []
        self._x_state = 0.0

    def _extend_to(self, index):
        while len(self._multipliers) <= index:
            if self._multipliers:
                x = self.ar * self._x_state + self._rng.normal(
                    0.0, self._innovation_scale
                )
            else:
                x = self._rng.normal(0.0, self.volatility)
            self._x_state = x
            multiplier = math.exp(x - self.volatility**2 / 2)
            if self._rng.random() < self.fade_probability:
                multiplier /= self._rng.uniform(2.0, self.fade_depth)
            self._multipliers.append(multiplier)

    def rate_at(self, t):
        index = int(t // self.epoch)
        self._extend_to(index)
        rate = self.mean_rate * self._multipliers[index]
        return max(rate, self.mean_rate * 1e-3)

    def next_change_after(self, t):
        return (int(t // self.epoch) + 1) * self.epoch


class LegacyEvent:
    """Pre-overhaul event: ``__dict__`` instance, callback list always
    allocated up front."""

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._value = _LEGACY_PENDING
        self._ok = None
        self.defused = False

    @property
    def triggered(self):
        return self._value is not _LEGACY_PENDING

    @property
    def processed(self):
        return self.callbacks is None

    def succeed(self, value=None):
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception):
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def add_callback(self, callback):
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            self.sim._schedule_call(lambda: callback(self))

    def remove_callback(self, callback):
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)


_LEGACY_PENDING = object()


class LegacyTimeout(LegacyEvent):
    def __init__(self, sim, delay, value=None):
        super().__init__(sim)
        self._ok = True
        self._value = value
        self.delay = delay
        sim._schedule(self, delay=delay)


class LegacyProcess(LegacyEvent):
    def __init__(self, sim, generator):
        super().__init__(sim)
        self._generator = generator
        self._target = None
        init = LegacyEvent(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._schedule(init)

    def _resume(self, event):
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        self._target = None
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    event.defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Exception as exc:
                self.fail(exc)
                return
            if target.processed:
                event = target
                continue
            self._target = target
            target.add_callback(self._resume)
            return


class LegacySimulator:
    """Pre-overhaul loop: every scheduled entry is a full event whose
    callback list is detached and iterated (instrumented with the same
    ``steps`` counter as the new kernel, for events/sec accounting)."""

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._counter = itertools.count()
        self.steps = 0

    @property
    def now(self):
        return self._now

    def timeout(self, delay, value=None):
        return LegacyTimeout(self, delay, value)

    def process(self, generator):
        return LegacyProcess(self, generator)

    def _schedule(self, event, delay=0.0):
        heapq.heappush(
            self._queue,
            (self._now + delay, next(self._counter), event, None),
        )

    def _schedule_call(self, func):
        heapq.heappush(
            self._queue, (self._now, next(self._counter), None, func)
        )

    def _step(self):
        when, _, event, func = heapq.heappop(self._queue)
        self._now = when
        self.steps += 1
        if func is not None:
            func()
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until=None):
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self._now = until
                return
            self._step()
        if until is not None:
            self._now = max(self._now, until)


class LegacyTransfer:
    def __init__(self, sim, nbytes):
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.event = LegacyEvent(sim)
        self.started_at = sim.now
        self.finished_at = None


class LegacyTransferEngine:
    """Pre-overhaul engine: a fresh Timeout event plus a versioned
    lambda per decision point."""

    def __init__(self, sim, bandwidth, max_parallel=5):
        self.sim = sim
        self.bandwidth = bandwidth
        self.max_parallel = max_parallel
        self.nic = None
        self._active = []
        self._last_update = sim.now
        self._timer_version = 0
        self._rate_in_effect = 0.0
        self.bytes_completed = 0.0
        self.transfers_completed = 0

    def per_connection_rate(self):
        rate = self.bandwidth.rate_at(self.sim.now)
        n = len(self._active)
        if n > self.max_parallel:
            rate = rate * self.max_parallel / n
        return rate

    def start(self, nbytes):
        transfer = LegacyTransfer(self.sim, nbytes)
        self._advance()
        self._active.append(transfer)
        self._reschedule()
        return transfer

    def _advance(self):
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        progressed = self._rate_in_effect * elapsed
        for transfer in self._active:
            transfer.remaining -= progressed

    def _reschedule(self):
        self._timer_version += 1
        rate_now = self.per_connection_rate()
        resolution = math.ulp(max(self.sim.now, 1.0))
        threshold = max(_EPSILON_BYTES, rate_now * resolution * 8)
        finished = [t for t in self._active if t.remaining <= threshold]
        if finished:
            for transfer in finished:
                self._active.remove(transfer)
                transfer.remaining = 0.0
                transfer.finished_at = self.sim.now
                self.bytes_completed += transfer.nbytes
                self.transfers_completed += 1
                transfer.event.succeed(transfer)
        if not self._active:
            self._rate_in_effect = 0.0
            return
        rate = self.per_connection_rate()
        self._rate_in_effect = rate
        shortest = min(t.remaining for t in self._active)
        completion_delay = shortest / rate if rate > 0 else math.inf
        epoch_delay = (
            self.bandwidth.next_change_after(self.sim.now) - self.sim.now
        )
        delay = max(min(completion_delay, epoch_delay), resolution * 2)
        version = self._timer_version
        timer = self.sim.timeout(delay)
        timer.add_callback(lambda _evt: self._on_timer(version))

    def _on_timer(self, version):
        if version != self._timer_version:
            return
        self._advance()
        self._reschedule()


# -- substrate suite: sections ----------------------------------------------


def bench_bandwidth_epochs(quick):
    """Epoch-multiplier generation throughput, vectorized vs scalar."""
    epochs = 50_000 if quick else 200_000
    rounds = 2 if quick else 3
    epoch_s = 60.0
    params = dict(mean_rate=10 * MBPS, epoch=epoch_s, fade_probability=0.05)

    def generate_new():
        process = BandwidthProcess(np.random.default_rng(3), **params)
        process.rate_at((epochs - 1) * epoch_s)

    def generate_legacy():
        process = LegacyBandwidthProcess(np.random.default_rng(3), **params)
        process.rate_at((epochs - 1) * epoch_s)

    t_new = _best_of(generate_new, rounds)
    t_old = _best_of(generate_legacy, rounds)

    # O(1) query cost once materialized (the hot `rate_at` path).
    process = BandwidthProcess(np.random.default_rng(3), **params)
    process.rate_at((epochs - 1) * epoch_s)
    queries = 20_000
    t_query = _best_of(
        lambda: [process.rate_at(i * 61.7) for i in range(queries)], rounds
    )
    return {
        "epochs": epochs,
        "epochs_per_s": epochs / t_new,
        "legacy_epochs_per_s": epochs / t_old,
        "speedup": t_old / t_new,
        "cached_rate_queries_per_s": queries / t_query,
    }


def _transfer_flow(sim, engine, flow_index, transfers):
    """One client: back-to-back transfers with think-time gaps."""
    for j in range(transfers):
        size = 40_000 + ((flow_index * 7919 + j * 104729) % 120_000)
        transfer = engine.start(float(size))
        yield transfer.event
        yield sim.timeout(0.25 + (j % 5) * 0.125)


_KERNEL_CLOUDS = 5  # per-cloud engines, like the §7 testbeds


def _run_kernel_scenario(sim, engines, flows, transfers):
    procs = [
        sim.process(
            _transfer_flow(sim, engines[i % _KERNEL_CLOUDS], i, transfers)
        )
        for i in range(flows)
    ]
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert all(p.triggered for p in procs)
    return sim.steps, elapsed


def bench_kernel_events(quick):
    """Event throughput of the substrate on a transfer-heavy workload.

    Five per-cloud engines (the paper's CCS count) with short bandwidth
    epochs make timer re-arms — the per-decision-point allocation the
    overhaul removed — the dominant event class, as in real campaigns.
    Each side runs its whole previous/current substrate: kernel, engine
    timer discipline, and bandwidth sampler together.  Fast-forward is
    pinned off on the new engine: it would skip ~2/3 of the boundary
    events outright, which makes events/second incomparable across the
    two sides — the skipping win is measured by ``bench_fastforward``.
    """
    flows, transfers = (10, 20) if quick else (15, 80)
    rounds = 5  # interleaved best-of; quick mode keeps all rounds for noise immunity
    params = dict(mean_rate=0.25 * MBPS, epoch=0.25, fade_probability=0.05)

    def run_new():
        sim = Simulator()
        engines = [
            TransferEngine(
                sim,
                BandwidthProcess(np.random.default_rng(6 + i), **params),
                max_parallel=3,
                fast_forward=False,
            )
            for i in range(_KERNEL_CLOUDS)
        ]
        return _run_kernel_scenario(sim, engines, flows, transfers)

    def run_legacy():
        sim = LegacySimulator()
        engines = [
            LegacyTransferEngine(
                sim,
                LegacyBandwidthProcess(
                    np.random.default_rng(6 + i), **params
                ),
                max_parallel=3,
            )
            for i in range(_KERNEL_CLOUDS)
        ]
        return _run_kernel_scenario(sim, engines, flows, transfers)

    best_new = best_old = None
    for _ in range(rounds):  # interleaved best-of: robust to noise
        new_steps, new_wall = run_new()
        old_steps, old_wall = run_legacy()
        if best_new is None or new_wall < best_new[1]:
            best_new = (new_steps, new_wall)
        if best_old is None or old_wall < best_old[1]:
            best_old = (old_steps, old_wall)
    new_rate = best_new[0] / best_new[1]
    old_rate = best_old[0] / best_old[1]
    return {
        "clouds": _KERNEL_CLOUDS,
        "flows": flows,
        "transfers_per_flow": transfers,
        "events_new": best_new[0],
        "events_legacy": best_old[0],
        "events_per_s": new_rate,
        "legacy_events_per_s": old_rate,
        "speedup": new_rate / old_rate,
    }


def bench_campaign_parallel(quick):
    """Campaign fan-out over a process pool vs inline serial.

    Besides the wall-clock speedup this records the dispatch-overhead
    profile of the shared-state pool: pickled bytes crossing the pipe
    per submitted chunk (indices only — cells travel once as shared
    worker state), submit-call latency, and the shared-state blob size.
    """
    from repro.workloads import campaign_cell, derive_seed, run_cells

    cores = os.cpu_count() or 1
    workers = min(4, cores) if cores >= 2 else 2
    locations = ["princeton", "beijing", "tokyo_pl", "virginia"]
    # Cells must be heavy enough to amortize pool startup, or the 3x
    # wall-clock bar measures fork overhead instead of fan-out.  Two
    # seeded repeats per location give the work-stealing chunker eight
    # unit chunks to balance over four workers.
    days = 6.0 if quick else 12.0
    cells = [
        campaign_cell(
            location, sizes=[512 * 1024], interval=1800.0,
            duration_days=days, seed=derive_seed(2026, location, repeat),
        )
        for location in locations
        for repeat in range(2)
    ]

    start = time.perf_counter()
    serial = run_cells(cells, max_workers=1)
    serial_wall = time.perf_counter() - start
    dispatch = {}
    start = time.perf_counter()
    parallel = run_cells(cells, max_workers=workers, dispatch_stats=dispatch)
    parallel_wall = time.perf_counter() - start

    samples = sum(len(cell) for cell in serial)
    chunks = max(dispatch.get("chunks", 0), 1)
    return {
        "cells": len(cells),
        "samples": samples,
        "cores": cores,
        "workers": workers,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "serial_cells_per_s": len(cells) / serial_wall,
        "parallel_cells_per_s": len(cells) / parallel_wall,
        "speedup": serial_wall / parallel_wall,
        "identical": repr(serial) == repr(parallel),
        "speedup_enforced": cores >= 4,
        "chunks": dispatch.get("chunks", 0),
        "chunk_size": dispatch.get("chunk_size", 0),
        "submit_payload_bytes": dispatch.get("submit_payload_bytes", 0),
        "submit_payload_bytes_per_chunk":
            dispatch.get("submit_payload_bytes", 0) / chunks,
        "submit_latency_s": dispatch.get("submit_latency_s", 0.0),
        "submit_latency_us_per_chunk":
            dispatch.get("submit_latency_s", 0.0) * 1e6 / chunks,
        "shared_state_bytes": dispatch.get("shared_state_bytes", 0),
    }


def bench_trial_rss(quick):
    """Peak-RSS guard: a cohorted fleet trial must stay memory-bounded.

    Runs a synthetic-payload ``run_trial`` in a child interpreter (so
    this process's own allocator high-water mark — megabytes of bench
    buffers — cannot mask the measurement) and reports the peak RSS
    across the child and its pool workers.  The streaming reducer is
    the point: per-user records are folded into fixed-size aggregates
    cohort by cohort, so peak memory tracks the cohort size, not the
    population.

    The child's own peak is read from ``/proc/self/status`` ``VmHWM``
    (which execve resets), not ``getrusage(RUSAGE_SELF)``: Linux folds
    the pre-exec mm's high-water mark into ``ru_maxrss``, and under
    ``posix_spawn``/``vfork`` that mm *is* the launching process's — so
    after a large in-process benchmark this guard would report the
    bench harness's multi-GB peak instead of the trial's.  The pool
    workers are plain forks (no exec), so ``RUSAGE_CHILDREN`` stays
    trustworthy for them.
    """
    import subprocess

    users = 10_000 if quick else 100_000
    cohort = 500
    script = (
        "import json, resource, sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from repro.workloads import TrialFleetStats, run_trial\n"
        "def self_peak_kb():\n"
        "    try:\n"
        "        with open('/proc/self/status') as fh:\n"
        "            for line in fh:\n"
        "                if line.startswith('VmHWM:'):\n"
        "                    return float(line.split()[1])\n"
        "    except OSError:\n"
        "        pass\n"
        "    return float(\n"
        "        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "start = time.perf_counter()\n"
        "summary = run_trial(n_users=int(sys.argv[2]), days=1.0,\n"
        "                    uploads_per_user=1, seed=2026,\n"
        "                    reducer=TrialFleetStats(),\n"
        "                    cohort_size=int(sys.argv[3]),\n"
        "                    payload='synthetic', max_workers=2)\n"
        "wall = time.perf_counter() - start\n"
        "rss_kb = max(self_peak_kb(),\n"
        "             resource.getrusage(resource.RUSAGE_CHILDREN)"
        ".ru_maxrss)\n"
        "print(json.dumps({'wall_s': wall, 'peak_rss_mb': rss_kb / 1024.0,\n"
        "                  'users': summary.users,\n"
        "                  'uploads': summary.uploads,\n"
        "                  'file_success_rate': summary.file_success_rate}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, _SRC, str(users), str(cohort)],
        capture_output=True, text=True, check=True,
    )
    child = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "users": users,
        "cohort_size": cohort,
        "trial_wall_s": child["wall_s"],
        "users_per_s": users / child["wall_s"],
        "trial_peak_rss_mb": child["peak_rss_mb"],
        "rss_limit_mb": _TRIAL_RSS_LIMIT_MB,
        "uploads": child["uploads"],
        "file_success_rate": child["file_success_rate"],
    }


#: Memory ceiling for the cohorted trial (MB).  A 2000-user run in
#: 500-user cohorts peaks around 250 MB; the ceiling leaves headroom
#: for interpreter/numpy baseline drift while still catching any
#: regression that re-materializes per-user records.
_TRIAL_RSS_LIMIT_MB = 512.0


def bench_fastforward(quick):
    """Analytic fast-forward vs event-by-event epoch advancement.

    Fault-free AR(1) epoch boundaries where nothing completes are
    computed arithmetically by ``TransferEngine._plan_ahead``; this
    measures the event-count and wall-clock reduction on long transfers
    over a volatile link, and asserts the outcomes are bit-identical.
    """
    from repro.netsim.bandwidth import BandwidthProcess
    from repro.netsim.transfer import TransferEngine

    n_transfers = 40 if quick else 160
    size = 20 * 1024 * 1024  # ~400 epochs each at ~50 KB/s

    def run(fast_forward):
        sim = Simulator()
        bandwidth = BandwidthProcess(
            np.random.default_rng(7), mean_rate=50_000.0,
            volatility=0.6, epoch=60.0,
        )
        engine = TransferEngine(sim, bandwidth, max_parallel=3,
                                fast_forward=fast_forward)
        finished = []

        def flow():
            for i in range(n_transfers):
                transfer = engine.start(size * (1 + (i % 5)) / 3)
                yield transfer.event
                finished.append((transfer.started_at,
                                 transfer.finished_at, transfer.nbytes))

        start = time.perf_counter()
        sim.run_process(flow())
        wall = time.perf_counter() - start
        return finished, sim.steps, wall

    ff_result, ff_steps, ff_wall = run(True)
    ev_result, ev_steps, ev_wall = run(False)
    return {
        "transfers": n_transfers,
        "steps_fast_forward": ff_steps,
        "steps_event_by_event": ev_steps,
        "event_reduction": ev_steps / max(ff_steps, 1),
        "wall_fast_forward_s": ff_wall,
        "wall_event_by_event_s": ev_wall,
        "speedup": ev_wall / ff_wall,
        "identical": repr(ff_result) == repr(ev_result),
    }


# -- obs suite: tracing/metrics overhead contract ---------------------------


def bench_obs_guards(quick):
    """Per-call cost of the disabled-mode instrumentation paths.

    Measures, against an empty loop over the same range, the three
    shapes library code uses: the guarded hot-path form
    (``if OBS.enabled: ...`` — one attribute read when disabled), the
    unguarded hub event call (early-out inside the method), and the
    unguarded counter increment.
    """
    from repro import obs
    from repro.obs import OBS

    obs.disable()
    n = 200_000 if quick else 1_000_000
    rounds = 3 if quick else 5
    span = range(n)

    def loop_empty():
        for _ in span:
            pass

    def loop_guard():
        hub = OBS
        for _ in span:
            if hub.enabled:
                hub.event("bench", t=0.0)

    def loop_event():
        hub = OBS
        for _ in span:
            hub.event("bench", t=0.0)

    def loop_inc():
        hub = OBS
        for _ in span:
            hub.inc("bench")

    base = _best_of(loop_empty, rounds)

    def per_call_ns(total):
        return max(total - base, 0.0) / n * 1e9

    return {
        "calls": n,
        "baseline_loop_s": base,
        "guard_ns": per_call_ns(_best_of(loop_guard, rounds)),
        "event_call_ns": per_call_ns(_best_of(loop_event, rounds)),
        "metric_inc_ns": per_call_ns(_best_of(loop_inc, rounds)),
    }


def _batch_scenario(count):
    """One scheduler upload+download batch under whatever observability
    hubs are currently installed; returns ``(digest, wall_seconds)``.

    The digest covers every simulated outcome (completion times, block
    placement, payload sizes), so equal digests mean the instrumentation
    did not perturb the simulation.
    """
    sim, conns, pipeline = _make_env(seed=21)
    estimator = ThroughputEstimator()
    up = UploadScheduler(sim, conns, pipeline, CONFIG,
                         estimator=estimator)
    files = _make_files(pipeline, count, seed=23)
    start = time.perf_counter()
    up_batch = sim.run_process(up.run_batch(files))
    down = DownloadScheduler(sim, conns, pipeline, CONFIG,
                             estimator=estimator)
    requests = [
        FileDownload(f.path, [record for record, _ in f.segments])
        for f in files
    ]
    down_batch = sim.run_process(down.run_batch(requests))
    wall = time.perf_counter() - start
    digest = repr(
        [
            (r.path, r.available_at, r.reliable_at,
             sorted(r.blocks_per_cloud.items()))
            for r in up_batch.files
        ]
        + [
            (r.path, r.completed_at, len(r.content or b""))
            for r in down_batch.files
        ]
    )
    return digest, wall


def _obs_batch(count, enabled):
    """One batch with tracing+metrics on or everything off; returns
    ``(digest, wall_seconds, records, snapshot)``."""
    from repro import obs

    if enabled:
        with obs.isolated() as (tracer, metrics):
            digest, wall = _batch_scenario(count)
            return digest, wall, len(tracer.records), metrics.snapshot()
    obs.disable()
    digest, wall = _batch_scenario(count)
    return digest, wall, 0, None


def bench_obs_overhead(quick, guards=None):
    """Disabled-vs-enabled end-to-end batch, plus the overhead estimate.

    The ``<= 2%`` contract is about what *disabled* tracing costs a
    library that never asked for it.  A before/after binary comparison
    is impossible in-tree (the guards are compiled in), so the estimate
    is analytic: the number of instrumentation sites a run crosses is
    bounded by the records an *enabled* run emits (times two: span
    begin + end), each costing one disabled guard read as measured by
    :func:`bench_obs_guards`.
    """
    guards = guards or bench_obs_guards(quick)
    count = 12 if quick else 40

    digest_off, wall_off_a, _, _ = _obs_batch(count, enabled=False)
    digest_on, wall_on, records, snapshot = _obs_batch(count, enabled=True)
    digest_off_b, wall_off_b, _, _ = _obs_batch(count, enabled=False)
    wall_off = min(wall_off_a, wall_off_b)

    guard_sites = 2 * records
    est_overhead = guard_sites * guards["guard_ns"] * 1e-9 / wall_off
    counters = (snapshot or {}).get("counters", {})
    return {
        "files": count,
        "wall_disabled_s": wall_off,
        "wall_enabled_s": wall_on,
        "enabled_slowdown": wall_on / wall_off,
        "records_enabled": records,
        "metric_series": len(counters),
        "guard_sites_estimate": guard_sites,
        "disabled_overhead_estimate": est_overhead,
        "identical": digest_off == digest_on == digest_off_b,
    }


def run_obs(quick=False):
    guards = bench_obs_guards(quick)
    overhead = bench_obs_overhead(quick, guards=guards)
    results = {
        "quick": quick,
        "guards": guards,
        "overhead": overhead,
    }
    results["checks"] = {
        "obs_disabled_identical": overhead["identical"],
        "obs_disabled_overhead_le_2pct":
            overhead["disabled_overhead_estimate"] <= 0.02,
    }
    return results


# -- telemetry suite: windows/health/SLO overhead contract ------------------


def bench_telemetry_guards(quick):
    """Per-call cost of the telemetry paths, disabled and enabled.

    The disabled side is the contract: library code crosses one
    ``if OBS.enabled:`` attribute read (or one early-out hub method)
    per reported fact, so those must stay ns-scale.  The
    enabled side prices the full fan-out (window inc + health EWMA +
    SLO accounting) per recording call — informative, and the unit cost
    behind the enabled-overhead estimate below.
    """
    from repro import obs
    from repro.obs import OBS, Telemetry

    obs.disable()
    n = 200_000 if quick else 1_000_000
    rounds = 3 if quick else 5
    span = range(n)

    def loop_empty():
        for _ in span:
            pass

    def loop_guard():
        hub = OBS
        for _ in span:
            if hub.enabled:
                hub.fault("c", 0.0, "outage-begin")

    def loop_call():
        hub = OBS
        for _ in span:
            hub.fault("c", 0.0, "outage-begin")

    def loop_query():
        hub = OBS
        for _ in span:
            hub.health_state("c")

    base = _best_of(loop_empty, rounds)

    def per_call_ns(total):
        return max(total - base, 0.0) / n * 1e9

    disabled = {
        "calls": n,
        "baseline_loop_s": base,
        "guard_ns": per_call_ns(_best_of(loop_guard, rounds)),
        "hub_call_ns": per_call_ns(_best_of(loop_call, rounds)),
        "query_ns": per_call_ns(_best_of(loop_query, rounds)),
    }

    # Enabled fan-out unit costs (fresh pipeline per round so window
    # ring state cannot grow unboundedly across rounds).
    m = 20_000 if quick else 100_000
    m_rounds = 2 if quick else 3

    def timed(record):
        def run():
            telemetry = Telemetry()
            for i in range(m):
                record(telemetry, i * 0.01)
        return _best_of(run, m_rounds) / m * 1e9

    disabled.update({
        "enabled_transfer_ns": timed(
            lambda tel, t: tel.transfer("c", t, True, 65536.0, "up",
                                        tenant="dev0")
        ),
        "enabled_estimator_ns": timed(
            lambda tel, t: tel.estimator("c", t, "up", 2.5e6, 2.4e6)
        ),
        "enabled_sync_round_ns": timed(
            lambda tel, t: tel.sync_round("dev0", t, t + 3.0)
        ),
    })
    return disabled


def _counting_telemetry():
    """A stock :class:`Telemetry` whose recording methods count calls.

    The count is the number of guard sites a *disabled* run of the same
    scenario crosses — the basis of the analytic overhead estimate."""
    from repro.obs import Telemetry

    telemetry = Telemetry()
    telemetry.calls = 0
    for name in ("transfer", "sync_round", "missing_block", "retry",
                 "estimator", "fault"):
        orig = getattr(telemetry, name)

        def counted(*args, _orig=orig, _tel=telemetry, **kwargs):
            _tel.calls += 1
            return _orig(*args, **kwargs)

        setattr(telemetry, name, counted)
    return telemetry


def _telemetry_batch(count, mode):
    """One batch under ``mode``: ``"off"``, ``"telemetry"`` (that sink
    only), or ``"full"`` (tracing + metrics + telemetry); returns
    ``(digest, wall_seconds, snapshot, calls)``."""
    from repro import obs

    obs.disable()
    if mode == "off":
        digest, wall = _batch_scenario(count)
        return digest, wall, None, 0
    telemetry = _counting_telemetry()
    only = mode == "telemetry"
    with obs.isolated(telemetry=telemetry, tracer=not only,
                      metrics=not only):
        digest, wall = _batch_scenario(count)
    return digest, wall, telemetry.snapshot(), telemetry.calls


def bench_telemetry_overhead(quick, guards=None):
    """Disabled vs telemetry-enabled vs fully-instrumented batch.

    Byte-identity across all modes is the hard contract.  The ``<= 2%``
    bar is the zero-overhead-when-disabled estimate, computed the same
    way as the obs suite's: the telemetry sites a run crosses (counted
    exactly by an enabled run) times the measured disabled-guard cost,
    over the disabled wall.  The *enabled* cost is also estimated — every
    recording call priced at the most expensive fan-out (``transfer``) —
    and reported alongside the measured walls, which on sub-100 ms
    batches carry too much scheduler jitter to gate on directly.
    """
    guards = guards or bench_telemetry_guards(quick)
    count = 12 if quick else 40

    digest_off, wall_off_a, _, _ = _telemetry_batch(count, "off")
    digest_tel, wall_tel, snapshot, calls = _telemetry_batch(
        count, "telemetry"
    )
    digest_full, wall_full, _, _ = _telemetry_batch(count, "full")
    digest_off_b, wall_off_b, _, _ = _telemetry_batch(count, "off")
    wall_off = min(wall_off_a, wall_off_b)

    est_disabled = calls * guards["guard_ns"] * 1e-9 / wall_off
    est_enabled = (
        calls * guards["enabled_transfer_ns"] * 1e-9 / wall_off
    )
    health = (snapshot or {}).get("health", {})
    windows = (snapshot or {}).get("windows", {}).get("windows", {})
    return {
        "files": count,
        "wall_disabled_s": wall_off,
        "wall_telemetry_s": wall_tel,
        "wall_full_s": wall_full,
        "telemetry_slowdown": wall_tel / wall_off,
        "telemetry_calls": calls,
        "windows_filled": len(windows),
        "clouds_scored": len(health),
        "all_healthy": all(
            entry["state"] == "healthy" for entry in health.values()
        ),
        "disabled_overhead_estimate": est_disabled,
        "enabled_overhead_estimate": est_enabled,
        "identical":
            digest_off == digest_tel == digest_full == digest_off_b,
    }


def bench_telemetry_end_to_end(quick, guards=None):
    """Enabled-telemetry cost on a full shared-folder campaign.

    The scheduler micro-batch above is nearly all yield-and-dispatch, so
    telemetry's few microseconds per recording call loom large there.
    The <= 2% *enabled* bar is claimed where it matters — an end-to-end
    shared-folder run with codec, chunking, and conflict-resolution work
    between telemetry sites.  Estimate = exact recording-call count
    (counted by the installed pipeline) x the most expensive fan-out
    unit cost, over the plain wall: an upper bound immune to the
    scheduler jitter that swamps a measured A/B at this scale.
    """
    from repro import obs
    from repro.workloads.shared import SharedScenario, run_shared

    guards = guards or bench_telemetry_guards(quick)
    writers, rounds = (3, 5) if quick else (4, 8)

    def scenario():
        return SharedScenario(writers=writers, rounds=rounds,
                              policy="retain-both", seed=0)

    def digest(result):
        return repr({k: v for k, v in vars(result).items()
                     if k != "telemetry"})

    run_shared(scenario())  # warmup
    start = time.perf_counter()
    plain = run_shared(scenario())
    wall_off = time.perf_counter() - start

    telemetry = _counting_telemetry()
    with obs.isolated(telemetry=telemetry, tracer=False, metrics=False):
        start = time.perf_counter()
        instrumented = run_shared(scenario())
        wall_on = time.perf_counter() - start

    estimate = (
        telemetry.calls * guards["enabled_transfer_ns"] * 1e-9 / wall_off
    )
    return {
        "writers": writers,
        "rounds": rounds,
        "wall_disabled_s": wall_off,
        "wall_telemetry_s": wall_on,
        "telemetry_slowdown": wall_on / wall_off,
        "telemetry_calls": telemetry.calls,
        "enabled_overhead_estimate": estimate,
        "identical": digest(plain) == digest(instrumented),
    }


def run_telemetry(quick=False):
    guards = bench_telemetry_guards(quick)
    overhead = bench_telemetry_overhead(quick, guards=guards)
    end_to_end = bench_telemetry_end_to_end(quick, guards=guards)
    results = {
        "quick": quick,
        "guards": guards,
        "overhead": overhead,
        "end_to_end": end_to_end,
    }
    results["checks"] = {
        "telemetry_identical":
            overhead["identical"] and end_to_end["identical"],
        # "ns-scale" disabled guard: the attribute read measures ~4 ns
        # on bare metal; 100 ns leaves room for virtualized CI hosts
        # while still catching any accidental work on the disabled path.
        "telemetry_guard_ns_scale": guards["guard_ns"] <= 100.0,
        "telemetry_disabled_overhead_le_2pct":
            overhead["disabled_overhead_estimate"] <= 0.02,
        "telemetry_enabled_overhead_le_2pct":
            end_to_end["enabled_overhead_estimate"] <= 0.02,
        "telemetry_scoreboard_clean": overhead["all_healthy"],
    }
    return results


# -- durability suite -------------------------------------------------------


def _digest_downloads(batch):
    import hashlib
    return repr(sorted(
        (r.path, hashlib.sha1(r.content or b"").hexdigest())
        for r in batch.files
    ))


def _hash_cost_model():
    """Per-call and per-byte cost of :func:`block_hash`, measured.

    The download walls are tens of milliseconds, so a direct A/B
    cannot resolve a <= 3% contract against scheduler jitter (the same
    reason the obs suite gates on an analytic estimate).  The estimate
    here is exact in structure: verification costs one ``block_hash``
    per fetched block, nothing else.
    """
    from repro.core.pipeline import block_hash
    small = b"\xa5" * 64
    # Larger than any L2: downloaded blocks arrive cache-cold, so the
    # per-byte figure must be memory-bound, not cache-resident.
    big = b"\xa5" * (8 * _MB)
    per_call = _best_of(
        lambda: [block_hash(small) for _ in range(256)], 5
    ) / 256
    big_cost = _best_of(lambda: block_hash(big), 5)
    per_byte = max(big_cost - per_call, 0.0) / len(big)
    return per_call, per_byte


def bench_hash_verify(quick):
    """Download-path cost of per-block hash verification.

    One upload seeds the clouds; the same download batch then runs with
    the recorded ``block_hashes`` in place (every block verified) and
    with the fingerprints stripped (verification short-circuits).  Both
    modes must produce byte-identical contents; the delta is the pure
    fingerprint cost on the download hot path.
    """
    count = 12 if quick else 40
    rounds = 3 if quick else 5
    sim, conns, pipeline = _make_env(seed=23)
    estimator = ThroughputEstimator()
    up = UploadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    files = _make_files(pipeline, count, seed=29)
    sim.run_process(up.run_batch(files))

    records = [record for f in files for record, _ in f.segments]
    blocks = sum(len(r.locations) for r in records)
    payload_mb = sum(
        len(data) for f in files for _, data in f.segments
    ) / _MB
    saved_hashes = [dict(r.block_hashes) for r in records]

    digests = []

    def run_download():
        down = DownloadScheduler(sim, conns, pipeline, CONFIG,
                                 estimator=ThroughputEstimator())
        requests = [
            FileDownload(f.path, [record for record, _ in f.segments])
            for f in files
        ]
        digests.append(_digest_downloads(sim.run_process(down.run_batch(
            requests
        ))))

    def set_verify(on):
        for record, hashes in zip(records, saved_hashes):
            record.block_hashes.clear()
            if on:
                record.block_hashes.update(hashes)

    # Interleave the two modes round by round (after one warmup each):
    # back-to-back best-of blocks would hand whichever mode runs last a
    # warmed-up process and swamp the few-percent signal with drift.
    for on in (True, False):
        set_verify(on)
        run_download()
    wall_verified = wall_plain = float("inf")
    for _ in range(rounds):
        set_verify(True)
        wall_verified = min(wall_verified, _best_of(run_download, 1))
        set_verify(False)
        wall_plain = min(wall_plain, _best_of(run_download, 1))
    set_verify(True)

    # Analytic estimate: one block_hash per fetched block (a download
    # fetches exactly k blocks per segment), over the plain wall.
    per_call, per_byte = _hash_cost_model()
    fetched = sum(record.k for record in records)
    hashed_bytes = sum(
        record.k * pipeline.block_size(record) for record in records
    )
    estimate = (
        fetched * per_call + hashed_bytes * per_byte
    ) / wall_plain

    overhead = wall_verified / wall_plain - 1.0
    return {
        "files": count,
        "blocks": blocks,
        "payload_mb": payload_mb,
        "wall_verified_s": wall_verified,
        "wall_plain_s": wall_plain,
        "verify_overhead_measured": overhead,
        "hash_per_call_ns": per_call * 1e9,
        "hash_gb_per_s": 1e-9 / per_byte if per_byte else float("inf"),
        "blocks_fetched": fetched,
        "hashed_mb": hashed_bytes / _MB,
        "verify_overhead_estimate": estimate,
        "verified_mb_per_s": payload_mb / wall_verified,
        "identical": len(set(digests)) == 1,
    }


def bench_scrub(quick):
    """Deep-audit throughput plus one full damage-and-heal round."""
    n_files = 6 if quick else 16
    file_kb = 96 if quick else 256
    rounds = 3 if quick else 5
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(N_CLOUDS)]
    conns = [
        make_instant_connection(sim, cloud, seed=31 + i)
        for i, cloud in enumerate(clouds)
    ]
    client = UniDriveClient(
        sim, "bench", VirtualFileSystem(), conns, config=CONFIG,
        rng=np.random.default_rng(37),
    )
    rng = np.random.default_rng(41)
    for i in range(n_files):
        client.fs.write_file(
            f"/f{i}",
            rng.integers(0, 256, size=file_kb * 1024,
                         dtype=np.uint8).tobytes(),
            mtime=sim.now,
        )
    sim.run_process(client.sync())
    scrubber = Scrubber(client)

    def deep_audit():
        report = sim.run_process(scrubber.audit(deep=True))
        assert report.clean
        return report

    blocks = deep_audit().blocks_checked
    audit_wall = _best_of(deep_audit, rounds)

    # Damage round: drop one block of every other segment, rot one
    # block of every third, then heal everything in one scrub round.
    damaged = 0
    for pos, record in enumerate(
        client.image.segments[sid] for sid in sorted(client.image.segments)
    ):
        placed = sorted(record.locations.items())
        by_id = {cloud.cloud_id: cloud for cloud in clouds}
        if pos % 2 == 0:
            idx, cid = placed[0]
            by_id[cid].store.delete(client.pipeline.block_path(record, idx))
            damaged += 1
        if pos % 3 == 0:
            idx, cid = placed[1]
            by_id[cid].store.corrupt(client.pipeline.block_path(record, idx))
            damaged += 1
    start = time.perf_counter()
    audit, fixed = sim.run_process(
        scrubber.scrub_round(deep=True, repair=True)
    )
    heal_wall = time.perf_counter() - start
    clean = sim.run_process(scrubber.audit(deep=True)).clean

    return {
        "files": n_files,
        "file_kb": file_kb,
        "blocks": blocks,
        "audit_wall_s": audit_wall,
        "audit_blocks_per_s": blocks / audit_wall,
        "damaged_blocks": damaged,
        "found_missing": len(audit.missing),
        "found_corrupt": len(audit.corrupt),
        "blocks_repaired": fixed.blocks_repaired,
        "heal_wall_s": heal_wall,
        "healed_clean": clean,
    }


def run_durability(quick=False):
    hash_verify = bench_hash_verify(quick)
    scrub = bench_scrub(quick)
    results = {
        "quick": quick,
        "hash_verify": hash_verify,
        "scrub": scrub,
    }
    results["checks"] = {
        "hash_verify_identical": hash_verify["identical"],
        # Re-baselined from 3% when the fused codec/dispatch work
        # shrank the download wall 3-4x: the per-block hash cost is at
        # the numpy call-overhead floor (~3 us + memory-bound bytes),
        # so the affordable *ratio* moves with the data-plane speed.
        "hash_verify_overhead_le_5pct":
            hash_verify["verify_overhead_estimate"] <= 0.05,
        "scrub_found_all_damage":
            scrub["found_missing"] + scrub["found_corrupt"]
            == scrub["damaged_blocks"],
        "scrub_heals_clean":
            scrub["healed_clean"]
            and scrub["blocks_repaired"] == scrub["damaged_blocks"],
    }
    return results


def run_substrate(quick=False):
    results = {
        "quick": quick,
        "bandwidth_epochs": bench_bandwidth_epochs(quick),
        "kernel_events": bench_kernel_events(quick),
        "campaign_parallel": bench_campaign_parallel(quick),
        "trial_rss": bench_trial_rss(quick),
        "fastforward": bench_fastforward(quick),
    }
    campaign = results["campaign_parallel"]
    ff = results["fastforward"]
    # The 3x fan-out bar needs real cores; since the shared-state pool
    # landed (cells travel once as worker state, submissions are index
    # tuples) quick-mode cells amortize pool startup too, so the bar is
    # enforced whenever >= 4 cores exist.  On smaller hosts the fan-out
    # measures ~1x and claiming ``true`` would be a lie, so the check
    # stays three-valued "skipped" there.  Byte-identity is enforced
    # everywhere, as are the trial memory ceiling and fast-forward
    # identity — neither depends on core count.
    checks = {
        "bandwidth_epochs_ge_5x":
            results["bandwidth_epochs"]["speedup"] >= 5.0,
        "kernel_events_ge_2x":
            results["kernel_events"]["speedup"] >= 2.0,
        "campaign_parallel_identical": campaign["identical"],
        "campaign_parallel_ge_3x":
            campaign["speedup"] >= 3.0
            if campaign["speedup_enforced"] else "skipped",
        "trial_peak_rss_under_limit":
            results["trial_rss"]["trial_peak_rss_mb"]
            <= results["trial_rss"]["rss_limit_mb"],
        "fastforward_identical": ff["identical"],
        "fastforward_fewer_events":
            ff["steps_fast_forward"] < ff["steps_event_by_event"],
    }
    results["checks"] = checks
    return results


def run_all(quick=False):
    results = {
        "quick": quick,
        "gf_matmul": bench_gf_matmul(quick),
        "codec": bench_encode_decode(quick),
        "chunking": bench_chunking(quick),
        "dispatch": bench_dispatch(quick),
        "end_to_end": bench_end_to_end(quick),
    }
    # The overhaul's headline number was ~3x on 4 MB segments; the
    # regression bar sits at 2.5x because the ratio against the in-file
    # legacy twin drifts with host CPU state.  Quick mode's 1 MB
    # segments sit closer to the shard-build overhead, so looser still.
    # The absolute-throughput bars (fused pair-table kernel) are only
    # meaningful at full 4 MB segment size — quick mode skips them.
    checks = {
        "encode_speedup_ge_2_5x":
            results["codec"]["encode_speedup"] >= (2.0 if quick else 2.5),
        "encode_mb_per_s_ge_300":
            results["codec"]["encode_mb_per_s"] >= 300.0
            if not quick else "skipped",
        "decode_mb_per_s_ge_500":
            results["codec"]["decode_mb_per_s"] >= 500.0
            if not quick else "skipped",
        "stream_within_1_5x_of_batch":
            results["chunking"]["stream_vs_batch"] <= 1.5,
        "stream_cuts_identical":
            results["chunking"]["stream_cuts_identical"],
        "dispatch_flat_within_2x":
            results["dispatch"]["cursor_flatness"] < 2.0,
        "download_dispatch_flat_within_2x":
            results["dispatch"]["download_flatness"] < 2.0,
    }
    results["checks"] = checks
    return results


def _print_hotpaths(results):
    codec = results["codec"]
    dispatch = results["dispatch"]
    print(f"gf_matmul:  {results['gf_matmul']['table_mb_per_s']:8.1f} MB/s "
          f"(legacy {results['gf_matmul']['logexp_mb_per_s']:.1f}, "
          f"{results['gf_matmul']['speedup']:.2f}x)")
    print(f"encode:     {codec['encode_mb_per_s']:8.1f} MB/s "
          f"(legacy {codec['encode_legacy_mb_per_s']:.1f}, "
          f"{codec['encode_speedup']:.2f}x)")
    print(f"blocks:     {codec['encode_blocks_cached_mb_per_s']:8.1f} MB/s "
          f"cached (legacy {codec['encode_blocks_legacy_mb_per_s']:.1f}, "
          f"{codec['encode_blocks_speedup']:.2f}x)")
    print(f"decode:     {codec['decode_mb_per_s']:8.1f} MB/s")
    chunk = results["chunking"]
    print(f"chunk:      {chunk['batch_mb_per_s']:8.1f} MB/s batch; stream "
          f"{chunk['stream_ring_mb_per_s']:.1f} MB/s in 64 KB feeds "
          f"(cuts identical={chunk['stream_cuts_identical']}); byte ring "
          f"{chunk['stream_byte_mb_per_s']:.2f} MB/s "
          f"({chunk['stream_speedup']:.2f}x vs pop(0))")
    print(f"dispatch:   {dispatch['cursor_small']['scans_per_block']:.2f} -> "
          f"{dispatch['cursor_large']['scans_per_block']:.2f} scans/block "
          f"({dispatch['cursor_small']['files']} -> "
          f"{dispatch['cursor_large']['files']} files, "
          f"flatness {dispatch['cursor_flatness']:.2f}x; reference grows "
          f"{dispatch['reference_growth']:.2f}x)")
    down_small, down_large = (
        dispatch["download_small"], dispatch["download_large"]
    )
    print(f"download:   {down_small['scans_per_block']:.2f} -> "
          f"{down_large['scans_per_block']:.2f} scans/block "
          f"({down_small['segments']} -> {down_large['segments']} "
          f"segments on 5/10/20/40/80 Mbps, flatness "
          f"{dispatch['download_flatness']:.2f}x; "
          f"{down_large['wall_seconds']:.2f} s wall at "
          f"{down_large['segments']})")
    print(f"end-to-end: "
          f"{results['end_to_end']['payload_mb_per_s']:8.1f} MB/s sync "
          f"({results['end_to_end']['files_per_s']:.1f} file ops/s)")


def _print_substrate(results):
    bandwidth = results["bandwidth_epochs"]
    kernel = results["kernel_events"]
    campaign = results["campaign_parallel"]
    print(f"bandwidth:  {bandwidth['epochs_per_s'] / 1e6:8.2f} M epochs/s "
          f"(legacy {bandwidth['legacy_epochs_per_s'] / 1e6:.3f} M, "
          f"{bandwidth['speedup']:.1f}x); cached rate_at "
          f"{bandwidth['cached_rate_queries_per_s'] / 1e6:.2f} M queries/s")
    print(f"kernel:     {kernel['events_per_s'] / 1e3:8.1f} k events/s "
          f"(legacy {kernel['legacy_events_per_s'] / 1e3:.1f} k, "
          f"{kernel['speedup']:.2f}x) over {kernel['events_new']} events")
    enforced = "" if campaign["speedup_enforced"] else (
        f" [3x bar waived: {campaign['cores']} core(s)]"
    )
    print(f"campaign:   {campaign['cells']} cells, "
          f"{campaign['serial_wall_s']:.2f}s serial -> "
          f"{campaign['parallel_wall_s']:.2f}s on "
          f"{campaign['workers']} workers "
          f"({campaign['speedup']:.2f}x, identical="
          f"{campaign['identical']}){enforced}")
    print(f"dispatch:   {campaign['chunks']} chunks of "
          f"{campaign['chunk_size']} cell(s); "
          f"{campaign['submit_payload_bytes_per_chunk']:.0f} B and "
          f"{campaign['submit_latency_us_per_chunk']:.0f} us per submit; "
          f"shared state {campaign['shared_state_bytes']} B")
    trial = results["trial_rss"]
    print(f"trial rss:  {trial['users']} users in {trial['cohort_size']}-"
          f"user cohorts: peak {trial['trial_peak_rss_mb']:.1f} MB "
          f"(limit {trial['rss_limit_mb']:.0f}), "
          f"{trial['users_per_s']:.0f} users/s")
    ff = results["fastforward"]
    print(f"fastfwd:    {ff['steps_event_by_event']} -> "
          f"{ff['steps_fast_forward']} events "
          f"({ff['event_reduction']:.1f}x fewer), wall "
          f"{ff['wall_event_by_event_s']:.2f}s -> "
          f"{ff['wall_fast_forward_s']:.2f}s "
          f"({ff['speedup']:.2f}x, identical={ff['identical']})")


def _print_obs(results):
    guards = results["guards"]
    overhead = results["overhead"]
    print(f"guards:     {guards['guard_ns']:8.1f} ns/guard disabled "
          f"(event call {guards['event_call_ns']:.1f} ns, "
          f"inc {guards['metric_inc_ns']:.1f} ns)")
    print(f"overhead:   {overhead['wall_disabled_s']:8.2f}s disabled vs "
          f"{overhead['wall_enabled_s']:.2f}s enabled "
          f"({overhead['records_enabled']} records, "
          f"{overhead['enabled_slowdown']:.2f}x); est disabled cost "
          f"{overhead['disabled_overhead_estimate']:.4%} "
          f"(identical={overhead['identical']})")


def _print_durability(results):
    verify = results["hash_verify"]
    scrub = results["scrub"]
    print(f"hashverify: {verify['hash_gb_per_s']:8.1f} GB/s fingerprint; "
          f"{verify['blocks_fetched']} blocks/"
          f"{verify['hashed_mb']:.1f} MB verified per batch; est "
          f"{verify['verify_overhead_estimate']:.2%} of "
          f"{verify['wall_plain_s'] * 1000:.0f}ms download wall "
          f"(measured {verify['verify_overhead_measured']:+.2%}, "
          f"identical={verify['identical']})")
    print(f"scrub:      {verify['verified_mb_per_s']:8.1f} MB/s verified "
          f"download; deep audit "
          f"{scrub['audit_blocks_per_s']:.0f} blocks/s; "
          f"{scrub['damaged_blocks']} damaged -> "
          f"{scrub['blocks_repaired']} repaired in "
          f"{scrub['heal_wall_s']:.2f}s "
          f"(clean={scrub['healed_clean']})")


def _print_telemetry(results):
    guards = results["guards"]
    overhead = results["overhead"]
    print(f"guards:     {guards['guard_ns']:8.1f} ns/guard disabled "
          f"(hub call {guards['hub_call_ns']:.1f} ns, "
          f"query {guards['query_ns']:.1f} ns); enabled fan-out "
          f"{guards['enabled_transfer_ns'] / 1000:.1f} us/transfer, "
          f"{guards['enabled_estimator_ns'] / 1000:.1f} us/estimator, "
          f"{guards['enabled_sync_round_ns'] / 1000:.1f} us/round")
    print(f"overhead:   {overhead['wall_disabled_s']:8.2f}s disabled vs "
          f"{overhead['wall_telemetry_s']:.2f}s telemetry "
          f"({overhead['telemetry_calls']} calls, "
          f"{overhead['windows_filled']} windows, "
          f"{overhead['clouds_scored']} clouds scored); est disabled cost "
          f"{overhead['disabled_overhead_estimate']:.4%} "
          f"(identical={overhead['identical']})")
    e2e = results["end_to_end"]
    print(f"end-to-end: {e2e['wall_disabled_s']:8.2f}s shared campaign "
          f"({e2e['writers']} writers x {e2e['rounds']} rounds) vs "
          f"{e2e['wall_telemetry_s']:.2f}s with telemetry "
          f"({e2e['telemetry_calls']} calls); est enabled cost "
          f"{e2e['enabled_overhead_estimate']:.2%} "
          f"(identical={e2e['identical']})")


# -- robustness suite: the degradation control plane ------------------------


def bench_breaker_guard(quick):
    """Per-dispatch cost of the degrade admission path.

    The guard runs inside every scheduler peek, so its cost rides on
    the dispatch hot loop.  Measured: the closed-breaker ``admits``
    check, the full dispatch/outcome cycle, and the disabled-path cost
    (the ``is not None`` branch the goldens ride on).
    """
    iters = 200_000 if quick else 1_000_000
    config = UniDriveConfig(theta=64 * 1024, degrade_enabled=True)
    degrade = DegradeController(config, health_gate=False)
    for i in range(N_CLOUDS):
        degrade.breaker(f"cloud{i}")

    start = time.perf_counter()
    for i in range(iters):
        degrade.admits("cloud0", float(i))
    admit_ns = (time.perf_counter() - start) / iters * 1e9

    start = time.perf_counter()
    for i in range(iters):
        degrade.note_dispatch("cloud0", float(i))
        degrade.on_success("cloud0", float(i))
    cycle_ns = (time.perf_counter() - start) / iters * 1e9

    disabled = None
    sink = 0
    start = time.perf_counter()
    for i in range(iters):
        if disabled is not None:
            sink += 1
    disabled_ns = (time.perf_counter() - start) / iters * 1e9
    return {
        "iters": iters,
        "admit_ns": admit_ns,
        "outcome_cycle_ns": cycle_ns,
        "disabled_branch_ns": disabled_ns,
    }


def _hedged_download(count, hedge, slow_factor, seed=23):
    """Upload a batch on healthy links, brown out one cloud, fetch it
    all back — with or without hedged reads."""
    sim, conns, pipeline = _make_env(seed=seed)
    estimator = ThroughputEstimator()
    up = UploadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    files = _make_files(pipeline, count, seed=seed + 1)
    sim.run_process(up.run_batch(files))
    requests = [
        FileDownload(f.path, [record for record, _ in f.segments])
        for f in files
    ]
    # Warm the download-direction estimator on healthy links first: the
    # hedge threshold is derived from per-cloud throughput history, and
    # a long-lived client always has some (this batch plays that role
    # for both arms of the A/B).
    warm = DownloadScheduler(sim, conns, pipeline, CONFIG,
                             estimator=estimator)
    sim.run_process(warm.run_batch(requests))
    # Brown out cloud1 *after* placement so both sides hold identical
    # layouts: latency x factor, bandwidth / factor, zero errors.
    slow = conns[1].conditions
    slow.latency.base_seconds *= slow_factor
    slow.uplink.scale(1.0 / slow_factor)
    slow.downlink.scale(1.0 / slow_factor)
    if hedge:
        config = UniDriveConfig(theta=64 * 1024, degrade_enabled=True)
        degrade = DegradeController(config, health_gate=False)
    else:
        config, degrade = CONFIG, None
    down = DownloadScheduler(sim, conns, pipeline, config,
                             estimator=estimator, degrade=degrade)
    t0 = sim.now
    start = time.perf_counter()
    batch = sim.run_process(down.run_batch(requests))
    wall = time.perf_counter() - start
    assert all(r.content is not None for r in batch.files)
    payload = sum(len(data) for f in files for _, data in f.segments)
    lat = sorted(down.fetch_latencies)
    return {
        "fetches": len(lat),
        "p50_s": float(np.percentile(lat, 50)),
        "p99_s": float(np.percentile(lat, 99)),
        "batch_sim_s": sim.now - t0,
        "payload_bytes": payload,
        "hedges_fired": down.hedges_fired,
        "hedged_bytes": down.hedged_bytes,
        "wall_seconds": wall,
    }


def bench_hedged_reads(quick):
    """A/B of the hedged-read path against one browned-out cloud.

    The acceptance bar: hedging cuts p99 block-fetch latency by at
    least 30% while issuing at most 10% extra download bytes (the
    configured ``hedge_bytes_fraction`` cap).
    """
    count = 20 if quick else 60
    slow_factor = 25.0
    plain = _hedged_download(count, hedge=False, slow_factor=slow_factor)
    hedged = _hedged_download(count, hedge=True, slow_factor=slow_factor)
    return {
        "files": count,
        "slow_factor": slow_factor,
        "plain": plain,
        "hedged": hedged,
        "p99_win_fraction": (
            1.0 - hedged["p99_s"] / plain["p99_s"]
            if plain["p99_s"] > 0 else 0.0
        ),
        "extra_bytes_fraction": (
            hedged["hedged_bytes"] / hedged["payload_bytes"]
            if hedged["payload_bytes"] else 0.0
        ),
    }


def bench_debt_repayment(quick):
    """Brownout commit under a dead cloud, then scrub-to-convergence.

    Reports how many scrub rounds the debt needs to reach zero after
    the cloud recovers (the acceptance bar is full repayment; the
    convergence count is the trend metric).
    """
    files = 6 if quick else 16
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(N_CLOUDS)]
    conns = [
        make_instant_connection(sim, cloud, seed=31 + i)
        for i, cloud in enumerate(clouds)
    ]
    fs = VirtualFileSystem()
    rng = np.random.default_rng(37)
    for i in range(files):
        content = rng.integers(
            0, 256, size=96 * 1024, dtype=np.uint8
        ).tobytes()
        fs.write_file(f"/f{i}", content, mtime=0.0)
    config = UniDriveConfig(theta=64 * 1024, degrade_enabled=True)
    client = UniDriveClient(
        sim, "bench", fs, conns, config=config,
        rng=np.random.default_rng(41),
    )
    clouds[1].set_available(False)
    start = time.perf_counter()
    sim.run_process(client.sync())
    debt_recorded = sum(
        len(rec.debt) for rec in client.image.segments.values()
    )
    clouds[1].set_available(True)

    # A recovered provider readmits traffic only through the breaker's
    # half-open probes; let the cooldown elapse as it would in a real
    # deployment before the scrub runs.
    def settle():
        yield sim.timeout(config.breaker_cooldown_seconds + 1.0)

    sim.run_process(settle())
    scrubber = Scrubber(client)
    rounds = 0
    while scrubber.owed_segments() and rounds < 5:
        rounds += 1
        sim.run_process(scrubber.repay_debt())
    wall = time.perf_counter() - start
    owed_after = sum(
        len(rec.debt) for rec in client.image.segments.values()
    )
    return {
        "files": files,
        "debt_recorded": debt_recorded,
        "debt_outstanding": owed_after,
        "convergence_rounds": rounds,
        "wall_seconds": wall,
    }


def run_robustness(quick=False):
    guard = bench_breaker_guard(quick)
    hedged = bench_hedged_reads(quick)
    debt = bench_debt_repayment(quick)
    results = {
        "quick": quick,
        "breaker_guard": guard,
        "hedged_reads": hedged,
        "debt_repayment": debt,
    }
    results["checks"] = {
        # The admission guard is a dict lookup + a couple of branches;
        # anything over 2 us would show up in dispatch-heavy batches.
        "breaker_admit_under_2us": guard["admit_ns"] <= 2000.0,
        "hedged_p99_win_ge_30pct": hedged["p99_win_fraction"] >= 0.30,
        "hedged_extra_bytes_le_10pct":
            hedged["extra_bytes_fraction"] <= 0.10,
        "debt_recorded_nonzero": debt["debt_recorded"] > 0,
        "debt_fully_repaid": debt["debt_outstanding"] == 0,
        "debt_converges_in_one_round": debt["convergence_rounds"] <= 1,
    }
    return results


def _print_robustness(results):
    guard = results["breaker_guard"]
    hedged = results["hedged_reads"]
    debt = results["debt_repayment"]
    print(f"guard:      {guard['admit_ns']:8.1f} ns/admit, "
          f"{guard['outcome_cycle_ns']:.1f} ns dispatch+outcome, "
          f"{guard['disabled_branch_ns']:.1f} ns disabled branch")
    print(f"hedging:    p99 {hedged['plain']['p99_s']:8.2f}s -> "
          f"{hedged['hedged']['p99_s']:.2f}s "
          f"({hedged['p99_win_fraction']:.0%} win) at "
          f"{hedged['extra_bytes_fraction']:.1%} extra bytes, "
          f"{hedged['hedged']['hedges_fired']} hedges over "
          f"{hedged['files']} files")
    print(f"debt:       {debt['debt_recorded']} blocks owed -> "
          f"{debt['debt_outstanding']} after "
          f"{debt['convergence_rounds']} scrub round(s) "
          f"({debt['files']} files, {debt['wall_seconds']:.2f}s wall)")


_SUITES = {
    "hotpaths": (run_all, RESULTS_PATH, _print_hotpaths),
    "substrate": (run_substrate, SUBSTRATE_RESULTS_PATH, _print_substrate),
    "obs": (run_obs, OBS_RESULTS_PATH, _print_obs),
    "durability": (run_durability, DURABILITY_RESULTS_PATH,
                   _print_durability),
    "telemetry": (run_telemetry, TELEMETRY_RESULTS_PATH, _print_telemetry),
    "robustness": (run_robustness, ROBUSTNESS_RESULTS_PATH,
                   _print_robustness),
}


# -- regression compare: fresh run vs the committed baselines ---------------
#
# ``--compare`` diffs the metrics below against the committed
# ``benchmarks/results/BENCH_*.json`` and reports a three-valued verdict
# per metric: ``true`` (within the tolerance band of the baseline, or
# better), ``false`` (regressed beyond tolerance), or ``"skipped"``
# (no baseline, a non-numeric value, or a quick/full mode mismatch —
# quick-mode numbers are not comparable to full-mode baselines).  The
# verdicts are embedded in the written results and printed as
# annotations; they never affect the exit status — wall-clock ratios
# across heterogeneous CI hosts are a trend signal, not a gate, unlike
# the in-run ``checks`` whose bars are host-calibrated.

_COMPARE_METRICS = {
    "hotpaths": {
        "codec.encode_mb_per_s": "higher",
        "codec.decode_mb_per_s": "higher",
        "chunking.batch_mb_per_s": "higher",
        "dispatch.cursor_flatness": "lower",
        "end_to_end.payload_mb_per_s": "higher",
    },
    "substrate": {
        "bandwidth_epochs.epochs_per_s": "higher",
        "kernel_events.events_per_s": "higher",
        "fastforward.event_reduction": "higher",
        "trial_rss.trial_peak_rss_mb": "lower",
    },
    "obs": {
        "guards.guard_ns": "lower",
        "guards.event_call_ns": "lower",
        "overhead.records_enabled": "lower",
    },
    "durability": {
        "hash_verify.verify_overhead_estimate": "lower",
        "hash_verify.hash_gb_per_s": "higher",
        "scrub.audit_blocks_per_s": "higher",
    },
    "telemetry": {
        "guards.guard_ns": "lower",
        "guards.enabled_transfer_ns": "lower",
        "overhead.telemetry_calls": "lower",
        "end_to_end.telemetry_calls": "lower",
    },
    "robustness": {
        "breaker_guard.admit_ns": "lower",
        "hedged_reads.p99_win_fraction": "higher",
        "hedged_reads.extra_bytes_fraction": "lower",
        "debt_repayment.convergence_rounds": "lower",
    },
}


def _metric_value(results, dotted):
    node = results
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def compare_results(suite, fresh, baseline, tolerance):
    """Three-valued regression verdicts for one suite.

    Returns ``{metric: {"baseline", "fresh", "ratio", "verdict"}}``.
    """
    report = {}
    mode_mismatch = (
        baseline is None or baseline.get("quick") != fresh.get("quick")
    )
    for metric, direction in _COMPARE_METRICS.get(suite, {}).items():
        new = _metric_value(fresh, metric)
        old = None if baseline is None else _metric_value(baseline, metric)
        entry = {"baseline": old, "fresh": new, "direction": direction,
                 "ratio": None, "verdict": "skipped"}
        if not mode_mismatch and new is not None and old:
            ratio = new / old
            entry["ratio"] = ratio
            if direction == "higher":
                entry["verdict"] = bool(ratio >= 1.0 - tolerance)
            else:
                entry["verdict"] = bool(ratio <= 1.0 + tolerance)
        report[metric] = entry
    return report


def _print_compare(suite, report):
    for metric, entry in report.items():
        if entry["verdict"] == "skipped":
            print(f"compare[{suite}]: {metric} skipped "
                  f"(no comparable baseline)")
            continue
        state = "ok" if entry["verdict"] else "REGRESSED"
        print(f"compare[{suite}]: {metric} {entry['fresh']:.4g} vs "
              f"{entry['baseline']:.4g} baseline "
              f"({entry['ratio']:.2f}x, want {entry['direction']}) "
              f"-> {state}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / few rounds, for CI smoke runs")
    parser.add_argument("--suite",
                        choices=["hotpaths", "substrate", "obs",
                                 "durability", "telemetry", "robustness",
                                 "all"],
                        default="all", help="which suite(s) to run")
    parser.add_argument("--out", default=None,
                        help="output JSON path (single-suite runs only)")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="fail if total wall clock exceeds this budget")
    parser.add_argument("--compare", action="store_true",
                        help="diff the fresh run against the committed "
                             "BENCH_*.json baselines (three-valued "
                             "verdicts; never affects the exit status)")
    parser.add_argument("--compare-tolerance", type=float, default=0.25,
                        metavar="FRAC",
                        help="fractional tolerance band for --compare "
                             "(default 0.25)")
    args = parser.parse_args(argv)

    suites = (
        list(_SUITES) if args.suite == "all" else [args.suite]
    )
    if args.out is not None and len(suites) > 1:
        parser.error("--out needs a single --suite")

    start = time.perf_counter()
    failed = []
    regressed = 0
    for name in suites:
        runner, default_out, printer = _SUITES[name]
        # The committed baseline must be read before the fresh results
        # overwrite it in the default-path case.
        baseline = None
        if args.compare and os.path.exists(default_out):
            with open(default_out) as handle:
                baseline = json.load(handle)
        results = runner(quick=args.quick)
        if args.compare:
            results["compare"] = compare_results(
                name, results, baseline, args.compare_tolerance
            )
        out = args.out or default_out
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
        printer(results)
        if args.compare:
            _print_compare(name, results["compare"])
            regressed += sum(
                1 for entry in results["compare"].values()
                if entry["verdict"] is False
            )
        print(f"wrote {out}")
        failed += [
            f"{name}:{check}"
            for check, ok in results["checks"].items() if ok is False
        ]
    elapsed = time.perf_counter() - start
    if args.compare:
        print(f"compare: {regressed} metric(s) beyond the "
              f"{args.compare_tolerance:.0%} tolerance band "
              "(annotation only — does not affect the exit status)")

    if args.budget_seconds is not None and elapsed > args.budget_seconds:
        failed.append(
            f"wall_clock_budget ({elapsed:.1f}s > {args.budget_seconds:.1f}s)"
        )
    print(f"total wall clock: {elapsed:.1f}s")
    if failed:
        print(f"ACCEPTANCE FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("acceptance checks: all passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
