"""Download dispatch: a same-instant ordering pin, hedging invariants
and a kernel-work bound.

Download slots park and wake like upload slots.  The sha256 pin below
fixes the order of every request, RNG draw and estimator update of two
concurrent readers in a configuration the golden figures do not reach;
no change to how slots park and wake may move it.  It was last taken
when a slower cloud stopped deferring to a faster one whose connections
are all busy past its own finish: the readers' requests moved from
cloud4 to the slower clouds (cloud4 served 49 and 46 instead of 59 and
62) and both batches end sooner (11.501 and 11.475 s, were 11.560 and
11.572 s).
"""

import hashlib

import numpy as np

from _sched_env import CONFIG, make_env, log_requests, profile
from repro.core.config import UniDriveConfig
from repro.core.degrade import DegradeController
from repro.core.metadata import SegmentRecord
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
        "876e1b2e9c36b49acfde543087b1feddff111e47a5e12c2cade047316e574f4e"
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


def two_cloud_batch(file_bytes, count, theta):
    """``count`` one-segment files of ``file_bytes`` bytes on two clouds,
    fetched back by a fast cloud0 (80 Mbps down) and a slow cloud1 (20
    Mbps down), both behind 50 ms of latency.  cloud0 uploaded 16x
    faster, so it holds its fair share plus an extra block of each
    segment (3 blocks, all a segment needs) and cloud1 its fair share
    (2 blocks).
    Returns the download's request log; the estimates are primed with
    one block fetch per cloud."""
    config = UniDriveConfig(theta=theta, k_reliability=2, k_security=1)
    sim, clouds, conns, pipeline = make_env([40.0, 2.5], seed=7,
                                            config=config)
    rng = np.random.default_rng(11)
    files = []
    for i in range(count):
        content = rng.integers(0, 256, size=file_bytes,
                               dtype=np.uint8).tobytes()
        segments = [(pipeline.make_record(seg), seg.data)
                    for seg in pipeline.segment_file(content)]
        files.append(FileUpload(path=f"/f{i}", segments=segments))
    sim.run_process(UploadScheduler(sim, conns, pipeline, config)
                    .run_batch(files))
    requests = [FileDownload(f.path, [record for record, _ in f.segments])
                for f in files]
    assert all(len(record.blocks_on("cloud0")) == 3
               for f in requests for record in f.segments)
    conns = connect(sim, clouds, 70, [profile(40.0), profile(10.0)])
    estimator = ThroughputEstimator()
    block = pipeline.block_size(requests[0].segments[0])
    for conn, mbps in zip(conns, (80, 20)):
        estimator.record(conn.cloud_id, "down", block,
                         0.05 + block * 8 / (mbps * 1e6))
    down = DownloadScheduler(sim, conns, pipeline, config,
                             estimator=estimator)
    log = log_requests(sim, conns)
    batch = sim.run_process(down.run_batch(requests))
    assert batch.all_completed
    return log


def busy_at(log, cloud, instant):
    return sum(1 for start, end, c, _path, _outcome in log
               if c == cloud and start <= instant < end)


def test_a_slower_cloud_fetches_when_it_finishes_first():
    """20 KB blocks on 50 ms links: a block takes 52 ms from cloud0 and
    58 ms from cloud1.  When all five of cloud0's connections are busy,
    a block cloud1 starts now lands before cloud0 could start it, so
    cloud1 takes it.  Deferring whenever a strictly faster cloud held
    the blocks left cloud1 idle for the whole batch (0 of 36 blocks)."""
    log = two_cloud_batch(60_000, 12, CONFIG.theta)
    slow = [start for start, _end, cloud, _path, _outcome in log
            if cloud == "cloud1"]
    assert slow
    assert all(busy_at(log, "cloud0", start) == CONFIG.connections_per_cloud
               for start in slow)


def test_a_slower_cloud_defers_when_the_faster_finishes_first():
    """1.3 MB blocks: cloud0 fetches one in 0.18 s, cloud1 in 0.57 s.
    Even with every connection of cloud0 busy, cloud0 finishes a block
    first, so cloud1 fetches nothing (the paper's sorted assignment)."""
    log = two_cloud_batch(3_900_000, 4, 4 * 1024 * 1024)
    assert {cloud for _start, _end, cloud, _path, _outcome in log} == {
        "cloud0"}


def test_a_deferral_requeues_when_the_last_idle_connection_is_taken():
    """cloud1 defers both segments of an indexed batch to cloud0 while
    cloud0 has an idle connection (20 KB blocks: 52 ms on cloud0, 85 ms
    on cloud1).  The parked verdicts are not evaluated again as time
    passes or as cloud0 takes four of its five connections; taking the
    last one moves cloud0's free instant 52 ms out, past cloud1's own
    finish, and re-queues them: cloud1 fetches the first."""
    config = UniDriveConfig(theta=CONFIG.theta, k_reliability=2,
                            k_security=1)
    sim, _clouds, conns, pipeline = make_env([8.0, 8.0], config=config)
    block = 20_000
    estimator = ThroughputEstimator()
    estimator.record("cloud0", "down", block, 0.052)
    estimator.record("cloud1", "down", block, 0.085)
    locations = {0: "cloud0", 1: "cloud0", 2: "cloud0",
                 3: "cloud1", 4: "cloud1"}
    requests = [
        FileDownload(f"/f{i}", [SegmentRecord(
            f"segment{i}", 3 * block, pipeline.n, pipeline.k,
            dict(locations))])
        for i in range(2)
    ]
    down = DownloadScheduler(sim, conns, pipeline, config,
                             estimator=estimator)
    batch = down.run_batch(requests)
    next(batch)  # indexed, every slot parked ...
    down.abort()  # ... and retired at the first dispatch step
    sim.run()
    first, second = down._ordered
    assert down._next_ready("cloud1") is None
    scans = down._dispatch_scans
    sim.run(until=sim.now + 1.0)
    for _ in range(config.connections_per_cloud - 1):
        down._occupy("cloud0", second)
        assert down._next_ready("cloud1") is None
    assert down._dispatch_scans == scans
    down._occupy("cloud0", second)
    assert down._next_ready("cloud1") == (first, 3)
    assert down._dispatch_scans == scans + 1
