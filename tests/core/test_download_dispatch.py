"""Download dispatch: a same-instant ordering pin, hedging invariants
and a kernel-work bound.

Download slots park and wake like upload slots.  The sha256 pin below
was generated with the earlier design (one worker process per slot,
every parked worker resumed by a broadcast event on every completion)
and must not move: it fixes the order of every request, RNG draw and
estimator update of two concurrent readers in a configuration the
golden figures do not reach.
"""

import hashlib

import numpy as np

from _sched_env import CONFIG, make_env, log_requests, profile
from repro.core.config import UniDriveConfig
from repro.core.degrade import DegradeController
from repro.core.probing import ThroughputEstimator
from repro.core.scheduler import (
    DownloadScheduler,
    FileDownload,
    FileUpload,
    UploadScheduler,
)
from repro.faults import FaultInjector
from repro.workloads import connect

#: 5/10/20/40/80 Mbps downlinks (``profile`` doubles the uplink figure).
SKEWED = [2.5, 5, 10, 20, 40]


def upload_files(sim, conns, pipeline, count, seed,
                 sizes=(150_000, 300_000)):
    """Upload ``count`` files of ``sizes`` bytes (a half-open range);
    returns their download requests."""
    rng = np.random.default_rng(seed)
    files = []
    for i in range(count):
        nbytes = int(rng.integers(*sizes))
        content = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        segments = [
            (pipeline.make_record(seg), seg.data)
            for seg in pipeline.segment_file(content)
        ]
        files.append(FileUpload(path=f"/f{i}", segments=segments))
    sim.run_process(UploadScheduler(sim, conns, pipeline, CONFIG)
                    .run_batch(files))
    return [
        FileDownload(f.path, [record for record, _ in f.segments])
        for f in files
    ]


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def two_reader_digest():
    """Two readers fetch the same 11 files (42 segments) at once over
    skewed links; cloud2 drops 20 % of its requests and cloud3 goes
    down 0.4 s into the batch."""
    sim, clouds, conns, pipeline = make_env(SKEWED, seed=50)
    requests = upload_files(sim, conns, pipeline, 11, seed=8)
    assert sum(len(f.segments) for f in requests) == 42
    FaultInjector(sim).outage(clouds[3], start=sim.now + 0.4)
    runs = []
    for reader in range(2):
        conns = connect(sim, clouds, 100 * (reader + 1), [
            profile(up, rate, latency_jitter=0.2)
            for up, rate in zip(SKEWED, [0.0, 0.0, 0.2, 0.0, 0.0])
        ])
        down = DownloadScheduler(sim, conns, pipeline, CONFIG,
                                 estimator=ThroughputEstimator())
        log = log_requests(sim, conns)
        runs.append((down, log, sim.process(down.run_batch(requests))))
    sim.run()
    parts = []
    for down, log, proc in runs:
        batch = proc.value
        outcomes = {entry[4] for entry in log}
        assert outcomes >= {"ok", "RequestFailedError",
                            "CloudUnavailableError"}
        assert batch.all_completed
        reports = [
            (r.path, r.size, r.started_at, r.completed_at,
             hashlib.sha256(r.content).hexdigest())
            for r in batch.files
        ]
        parts.append((log, reports, batch.finished_at,
                      batch.failed_requests, down.estimator.snapshot()))
    return digest(parts, sim.now)


def test_two_readers_request_order_pinned():
    assert two_reader_digest() == (
        "e41f4dc814de1ed9061aed6307d23e4435728050f6873c29284078b712ec98ea"
    )



def test_hedged_batch_settles_every_race():
    """Degradation plane on: after a healthy history cloud1 browns out
    25x, and idle slots hedge its outrun fetches.  Hedge bytes stay in
    budget, the losing fetches are cancelled, nothing is left in flight
    when the batch returns, and every file completes."""
    config = UniDriveConfig(theta=CONFIG.theta)
    sim, _clouds, conns, pipeline = make_env([20.0] * 5, seed=29)
    requests = upload_files(sim, conns, pipeline, 8, seed=3)
    estimator = ThroughputEstimator()
    for conn in conns:
        estimator.record(conn.cloud_id, "down", 40 * 125_000, 1.0)
    FaultInjector(sim).slow_cloud(conns[1], factor=25.0)
    log = log_requests(sim, conns)
    down = DownloadScheduler(
        sim, conns, pipeline, config, estimator=estimator,
        degrade=DegradeController(config),
    )
    batch = sim.run_process(down.run_batch(requests))
    assert batch.all_completed
    assert all(report.content is not None for report in batch.files)
    segments = {record.segment_id: record
                for file in requests for record in file.segments}
    expected = sum(record.k * pipeline.block_size(record)
                   for record in segments.values())
    assert down.hedges_fired > 0
    assert 0 < down.hedged_bytes <= config.hedge_bytes_fraction * expected
    assert any(entry[4] == "cancelled" for entry in log)
    assert down._inflight_total == 0
    assert all(entry[1] <= batch.finished_at for entry in log)
    requests_made = len(log)
    sim.run()  # a fetch still in flight would log when it resolves
    assert len(log) == requests_made


def test_small_batch_kernel_steps():
    """Four one-segment files on 5 clouds x 2 slots.  Slots park as
    data, not as processes: one dispatch step starts the batch, a pulse
    that finds no parked slot costs nothing, and the batch ends two
    hops after the last retire.  A process per slot, started and ended
    once per batch, plus a broadcast event per pulse took 101 steps."""
    sim, _clouds, conns, pipeline = make_env(SKEWED, seed=50)
    requests = upload_files(sim, conns, pipeline, 4, seed=8,
                            sizes=(30_000, 30_001))
    assert sum(len(f.segments) for f in requests) == 4
    down = DownloadScheduler(sim, conns, pipeline, CONFIG)
    before = sim.steps
    batch = sim.run_process(down.run_batch(requests))
    assert batch.all_completed
    assert sim.steps - before <= 80


def test_an_unconnected_holder_is_never_faster():
    """Blocks on five clouds, fetched over connections to the first four
    with a fresh estimator: the fifth holder has no estimate in this
    batch (``+inf``), and F(c) once counted it as faster than every
    probed cloud, which then deferred to it.  Files 2 and 3 came back
    with ``content=None`` although the four connected clouds hold every
    segment's k blocks."""
    sim, _clouds, conns, pipeline = make_env(up_speeds=(8, 4, 2, 1, 16))
    requests = upload_files(sim, conns, pipeline, 4, seed=3,
                            sizes=(100_000, 100_001))
    down = DownloadScheduler(sim, conns[:4], pipeline, CONFIG,
                             estimator=ThroughputEstimator())
    batch = sim.run_process(down.run_batch(requests))
    assert [f.content is not None for f in batch.files] == [True] * 4
