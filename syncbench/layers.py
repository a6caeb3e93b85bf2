"""The per-layer ledger: which calls are spanned, which work is counted.

Layer = module name under ``repro``.  Spans go around the calls into a
layer's public functions, on the binding the caller uses: a class
attribute for methods, and for ``from x import f`` style imports the
importing module's own name ``f``.  Two seams are private because the
work has no public entry point: the schedulers' ``_worker`` process
bodies (``run_batch`` only spawns them and waits) and the harness
counter ``_dispatch_scans`` (read-only, as ``tools/bench.py`` reads it).
Both are optional — if a later change removes them, the worker time
falls into ``simkernel.residual_s`` and the scan metrics read -1.

Span names are the stems of the ``*.self_s`` metrics.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.chunking.segmenter import Segmenter
from repro.cloud.simulated import CloudConnection
from repro.codec.reed_solomon import EncodeState, ReedSolomonCode
from repro.core import baselines, client, deltasync, scheduler, serialization
from repro.core.config import UniDriveConfig
from repro.core.lock import QuorumLock
from repro.core.pipeline import BlockPipeline
from repro.core.placement import normal_block_count
from repro.core.probing import ThroughputEstimator
from repro.simkernel import Simulator

from .trace import (
    Patches,
    Tracer,
    count_calls,
    span_function,
    span_generator,
)

__all__ = ["PER_LAYER", "ABSENT", "install", "layer_metrics", "is_exact"]

#: Value of a metric whose counter a later change removed.
ABSENT = -1

#: Cloud-side directory layout; every workload keeps the defaults.
_DIRS = UniDriveConfig()

#: (metric, unit, better) — BENCHMARK.json's ``per_layer`` list.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("chunking.bytes", "bytes", "lower"),
    ("chunking.segments", "count", "lower"),
    ("chunking.self_s", "s", "lower"),
    ("codec.encode_bytes", "bytes", "lower"),
    ("codec.decode_bytes", "bytes", "lower"),
    ("codec.encode_self_s", "s", "lower"),
    ("codec.decode_self_s", "s", "lower"),
    ("pipeline.blocks_encoded", "count", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("crypto.des_blocks_enc", "count", "lower"),
    ("crypto.des_blocks_dec", "count", "lower"),
    ("crypto.self_s", "s", "lower"),
    ("metadata.serialize_calls", "count", "lower"),
    ("metadata.deserialize_calls", "count", "lower"),
    ("metadata.bytes", "bytes", "lower"),
    ("metadata.self_s", "s", "lower"),
    ("deltasync.base_publishes", "count", "lower"),
    ("deltasync.delta_publishes", "count", "lower"),
    ("deltasync.self_s", "s", "lower"),
    ("lock.acquires", "count", "lower"),
    ("lock.requests", "count", "lower"),
    ("lock.wait_sim_s", "s", "lower"),
    ("lock.self_s", "s", "lower"),
    ("scheduler.up_batches", "count", "lower"),
    ("scheduler.down_batches", "count", "lower"),
    ("scheduler.blocks_up", "count", "lower"),
    ("scheduler.blocks_down", "count", "lower"),
    ("scheduler.up_dispatch_scans", "count", "lower"),
    ("scheduler.down_dispatch_scans", "count", "lower"),
    ("scheduler.down_scans_per_block", "ratio", "lower"),
    ("scheduler.extra_block_ratio", "ratio", "lower"),
    ("scheduler.up_self_s", "s", "lower"),
    ("scheduler.down_self_s", "s", "lower"),
    ("probing.estimate_calls", "count", "lower"),
    ("probing.record_calls", "count", "lower"),
    ("cloud.requests", "count", "lower"),
    ("cloud.failed_requests", "count", "lower"),
    ("cloud.wire_bytes", "bytes", "lower"),
    ("cloud.self_s", "s", "lower"),
    ("retry.retried_share", "ratio", "lower"),
    ("client.rounds", "count", "lower"),
    ("client.self_s", "s", "lower"),
    ("simkernel.steps", "count", "lower"),
    ("simkernel.steps_per_wall_s", "1/s", "higher"),
    ("simkernel.residual_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]

#: ``X.self_s`` metric -> span name whose self time it sums.
_SELF_TIME = {
    "chunking.self_s": "chunking",
    "codec.encode_self_s": "codec.encode",
    "codec.decode_self_s": "codec.decode",
    "pipeline.self_s": "pipeline",
    "crypto.self_s": "crypto",
    "metadata.self_s": "metadata",
    "deltasync.self_s": "deltasync",
    "lock.self_s": "lock",
    "scheduler.up_self_s": "scheduler.up",
    "scheduler.down_self_s": "scheduler.down",
    "cloud.self_s": "cloud",
    "client.self_s": "client",
    "simkernel.residual_s": "simkernel",
}

#: Metrics derived from the host clock; every other one is exact.
_HOST_CLOCK = set(_SELF_TIME) | {
    "simkernel.steps_per_wall_s", "trace.overhead_ratio",
    "trace.unattributed_share",
}


def is_exact(metric: str) -> bool:
    """Does ``metric`` repeat bit for bit for a fixed seed?"""
    return metric not in _HOST_CLOCK


# -- counting hooks (run outside the span they belong to) ------------------


def _chunked(counts, views, _segmenter, data):
    counts["chunking.bytes"] += len(data)
    counts["chunking.segments"] += len(views)


def _encoded(counts, _result, _code, data):
    counts["codec.encode_bytes"] += len(data)


def _decoded(counts, _data, _code, _blocks, data_length):
    counts["codec.decode_bytes"] += data_length


def _block_encoded(counts, _result, *_args):
    counts["pipeline.blocks_encoded"] += 1


def _encrypted(counts, _blob, _key, plaintext, _iv):
    counts["crypto.des_blocks_enc"] += len(plaintext) // 8 + 1  # PKCS pad


def _decrypted(counts, _plaintext, _key, blob):
    counts["crypto.des_blocks_dec"] += len(blob) // 8 - 1  # minus the IV


def _serialized(counts, *_):
    counts["metadata.serialize_calls"] += 1


def _deserialized(counts, *_):
    counts["metadata.deserialize_calls"] += 1


def _lock_acquired(counts, *_):
    counts["lock.acquires"] += 1


def _request_made(counts, _conn, path, *_, **_kwargs):
    if path.startswith(_DIRS.lock_dir):
        counts["lock.requests"] += 1


def _uploaded(counts, _none, _conn, path, *_, **_kwargs):
    if path.startswith(_DIRS.blocks_dir):
        counts["scheduler.blocks_up"] += 1
    elif path == _DIRS.meta_dir + "/base":
        counts["deltasync.base_publishes"] += 1
    elif path == _DIRS.meta_dir + "/delta":
        counts["deltasync.delta_publishes"] += 1


def _downloaded(counts, _content, _conn, path, *_, **_kwargs):
    if path.startswith(_DIRS.blocks_dir):
        counts["scheduler.blocks_down"] += 1


def _scans(counts, sched, key):
    scans = getattr(sched, "_dispatch_scans", None)
    if scans is None:
        counts[key] = ABSENT  # sticks: ABSENT + anything is never read
    elif counts[key] != ABSENT:
        counts[key] += scans


def _up_batch_done(counts, _report, sched, files):
    counts["scheduler.up_batches"] += 1
    _scans(counts, sched, "scheduler.up_dispatch_scans")
    normal = normal_block_count(
        sched.config.k_blocks, sched.config.k_reliability,
        len(sched.connections),
    )
    for file in files:
        for record, _data in file.segments:
            counts["scheduler.blocks_placed"] += len(record.locations)
            counts["scheduler.blocks_extra"] += sum(
                1 for index in record.locations if index >= normal
            )


def _down_batch_done(counts, _report, sched, _files):
    counts["scheduler.down_batches"] += 1
    _scans(counts, sched, "scheduler.down_dispatch_scans")


def _counting_steps(tracer: Tracer, raw):
    spanned = span_function(tracer, raw, "simkernel", "simkernel")

    def run(sim, *args, **kwargs):
        before = sim.steps
        try:
            return spanned(sim, *args, **kwargs)
        finally:
            tracer.counts["simkernel.steps"] += sim.steps - before

    return run


def _timing_wait(tracer: Tracer, raw):
    spanned = span_generator(tracer, raw, "lock", "core.lock",
                             after=_lock_acquired)

    def acquire(lock):
        began = lock.sim.now
        try:
            return (yield from spanned(lock))
        finally:
            tracer.counts["lock.wait_sim_s"] += lock.sim.now - began

    return acquire


def install(tracer: Tracer) -> Patches:
    """Wrap every seam; the caller must ``remove()`` the result."""
    patches = Patches()

    def fn(owner, attr, name, layer, after=None, required=True):
        patches.replace(
            owner, attr,
            lambda raw: span_function(tracer, raw, name, layer, after),
            required,
        )

    def gen(owner, attr, name, layer, before=None, after=None,
            required=True):
        patches.replace(
            owner, attr,
            lambda raw: span_generator(tracer, raw, name, layer,
                                       before, after),
            required,
        )

    try:
        _install(tracer, patches, fn, gen)
    except BaseException:
        patches.remove()
        raise
    return patches


def _install(tracer: Tracer, patches: Patches, fn, gen) -> None:
    # simkernel: everything a sim.run*() call does under no layer span is
    # the event loop, netsim timers and generator plumbing.
    for attr in ("run", "run_process"):
        patches.replace(Simulator, attr,
                        lambda raw: _counting_steps(tracer, raw))

    # core.client (and core.baselines' bare transfer client on the trial).
    gen(client.UniDriveClient, "sync", "client", "core.client")
    gen(baselines.MultiCloudBenchmark, "upload_sized", "client",
        "core.baselines")

    # chunking
    fn(Segmenter, "split_views", "chunking", "chunking", _chunked)
    fn(Segmenter, "split", "chunking", "chunking", _chunked)

    # codec: prepare() pads and copies, the first block()/matrix() call
    # runs the fused matmul; encode_block() goes through prepare(), so
    # its bytes are counted there.
    fn(ReedSolomonCode, "prepare", "codec.encode", "codec", _encoded)
    fn(ReedSolomonCode, "encode", "codec.encode", "codec", _encoded)
    fn(ReedSolomonCode, "encode_block", "codec.encode", "codec")
    fn(EncodeState, "matrix", "codec.encode", "codec")
    fn(EncodeState, "block", "codec.encode", "codec")
    fn(EncodeState, "blocks", "codec.encode", "codec")
    fn(ReedSolomonCode, "decode", "codec.decode", "codec", _decoded)

    # core.pipeline: hashing, block assembly, decode_segment minus codec.
    fn(BlockPipeline, "encode_block_with_digest", "pipeline",
       "core.pipeline", _block_encoded)
    fn(BlockPipeline, "encode_block", "pipeline", "core.pipeline",
       _block_encoded)
    fn(BlockPipeline, "decode_segment", "pipeline", "core.pipeline")
    fn(BlockPipeline, "assemble_file", "pipeline", "core.pipeline")
    fn(BlockPipeline, "make_record", "pipeline", "core.pipeline")
    fn(scheduler, "block_hash", "pipeline", "core.pipeline")
    fn(client, "block_hash_many", "pipeline", "core.pipeline")

    # crypto, on the two modules that call it.
    for module in (serialization, deltasync):
        fn(module, "encrypt_cbc", "crypto", "crypto", _encrypted)
        fn(module, "decrypt_cbc", "crypto", "crypto", _decrypted)

    # core.serialization, on the client's bindings.
    fn(client, "serialize_image", "metadata", "core.serialization",
       _serialized)
    fn(client, "serialize_version", "metadata", "core.serialization",
       _serialized)
    fn(client, "deserialize_image", "metadata", "core.serialization",
       _deserialized)
    fn(client, "deserialize_version", "metadata", "core.serialization",
       _deserialized)

    # core.deltasync
    fn(deltasync.DeltaLog, "to_bytes", "deltasync", "core.deltasync")
    fn(deltasync.DeltaLog, "from_bytes", "deltasync", "core.deltasync")
    fn(deltasync.DeltaLog, "apply_to", "deltasync", "core.deltasync")
    fn(client, "should_merge", "deltasync", "core.deltasync")

    # core.lock: wait_sim_s is sim time from the first resume of
    # acquire() to its return, measured by one more generator layer.
    patches.replace(QuorumLock, "acquire",
                    lambda raw: _timing_wait(tracer, raw))
    gen(QuorumLock, "release", "lock", "core.lock")
    gen(QuorumLock, "cleanup", "lock", "core.lock")

    # core.scheduler: run_batch sets up and reports; the workers dispatch.
    gen(scheduler.UploadScheduler, "run_batch", "scheduler.up",
        "core.scheduler", after=_up_batch_done)
    gen(scheduler.UploadScheduler, "_worker", "scheduler.up",
        "core.scheduler", required=False)
    gen(scheduler.DownloadScheduler, "run_batch", "scheduler.down",
        "core.scheduler", after=_down_batch_done)
    gen(scheduler.DownloadScheduler, "_worker", "scheduler.down",
        "core.scheduler", required=False)

    # core.probing: count only — ~3 M estimate() calls per 10 k requests;
    # their time stays in the scheduler's self time.
    for attr, key in (("estimate", "probing.estimate_calls"),
                      ("record", "probing.record_calls")):
        patches.replace(
            ThroughputEstimator, attr,
            lambda raw, key=key: count_calls(tracer, raw, key),
        )

    # cloud (+ netsim's transfer engine underneath it).
    gen(CloudConnection, "upload", "cloud", "cloud",
        before=_request_made, after=_uploaded)
    gen(CloudConnection, "download", "cloud", "cloud",
        before=_request_made, after=_downloaded)
    gen(CloudConnection, "list_folder", "cloud", "cloud",
        before=_request_made)
    gen(CloudConnection, "delete", "cloud", "cloud", before=_request_made)
    gen(CloudConnection, "create_folder", "cloud", "cloud",
        before=_request_made)


def layer_metrics(counts: Dict[str, float], self_s: Dict[str, float],
                  exact: Dict[str, int], traced_wall_s: float,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced pass.

    ``counts`` and ``self_s`` are the tracer's; ``exact`` holds the
    harness's own meters (``Run.counts``); ``untraced_wall_s`` is the
    same repeat with tracing off.
    """
    out: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name in _SELF_TIME:
            out[name] = self_s.get(_SELF_TIME[name], 0.0)
        elif name in counts:
            out[name] = counts[name]
        else:
            out[name] = exact.get(name, 0)
    blocks_down = out["scheduler.blocks_down"]
    scans = out["scheduler.down_dispatch_scans"]
    out["scheduler.down_scans_per_block"] = (
        ABSENT if scans == ABSENT
        else scans / blocks_down if blocks_down else 0.0
    )
    placed = counts.get("scheduler.blocks_placed", 0)
    out["scheduler.extra_block_ratio"] = (
        counts.get("scheduler.blocks_extra", 0) / placed if placed else 0.0
    )
    requests = out["cloud.requests"]
    out["retry.retried_share"] = (
        out["cloud.failed_requests"] / requests if requests else 0.0
    )
    out["simkernel.steps_per_wall_s"] = (
        out["simkernel.steps"] / untraced_wall_s
    )
    out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s - 1.0
    out["trace.unattributed_share"] = (
        out["simkernel.residual_s"] / traced_wall_s
    )
    return out
