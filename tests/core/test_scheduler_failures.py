"""Failure-path tests for the schedulers: retries, dead clouds, recovery."""

import numpy as np

from _sched_env import CONFIG, make_env
from repro.core.config import UniDriveConfig
from repro.core.scheduler import (
    DownloadScheduler,
    FileDownload,
    FileUpload,
    UploadScheduler,
)


#: Every link 20 Mbps up, 40 down; the tests vary failure rates.
FAST = [20.0] * 5


def make_file(pipeline, size=200 * 1024, seed=1, path="/f"):
    content = np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()
    segments = [
        (pipeline.make_record(seg), seg.data)
        for seg in pipeline.segment_file(content)
    ]
    return FileUpload(path=path, segments=segments), content


def test_upload_retries_through_flaky_cloud():
    """A 30%-flaky cloud still receives its fair share eventually."""
    sim, clouds, conns, pipeline = make_env(
        FAST, [0.0, 0.0, 0.0, 0.0, 0.30], seed=2
    )
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, _ = make_file(pipeline)
    batch = sim.run_process(scheduler.run_batch([file]))
    report = batch.report_for("/f")
    assert report.available_at is not None
    # The flaky (but alive) cloud eventually stored fair shares.
    if not report.degraded:
        assert report.reliable_at is not None
    assert batch.failed_requests > 0


def test_upload_failed_requests_counted():
    sim, clouds, conns, pipeline = make_env(FAST, [0.2] * 5, seed=3)
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, _ = make_file(pipeline)
    batch = sim.run_process(scheduler.run_batch([file]))
    assert batch.failed_requests > 0
    assert batch.report_for("/f").available_at is not None


def test_download_rerequests_from_other_clouds():
    """A block request failing on one cloud is replaced by a different
    block index from another cloud (blocks are interchangeable)."""
    sim, clouds, conns, pipeline = make_env(FAST, [0.0] * 5, seed=4)
    up = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, content = make_file(pipeline, size=150 * 1024)
    records = [r for r, _ in file.segments]
    sim.run_process(up.run_batch([file]))
    # Now make two clouds highly flaky for the download.
    for conn in conns[:2]:
        conn.conditions.failures.base_rate = 0.45
    down = DownloadScheduler(sim, conns, pipeline, CONFIG)
    batch = sim.run_process(down.run_batch([FileDownload("/f", records)]))
    assert batch.report_for("/f").content == content


def test_dead_cloud_mid_batch_does_not_stall():
    """A cloud dying between files of a batch must not wedge the batch."""
    sim, clouds, conns, pipeline = make_env(FAST, [0.0] * 5, seed=5)
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    files = [make_file(pipeline, seed=10 + i, path=f"/f{i}")[0]
             for i in range(4)]

    def killer():
        yield sim.timeout(0.3)
        clouds[2].set_available(False)

    sim.process(killer())
    batch = sim.run_process(scheduler.run_batch(files))
    for i in range(4):
        assert batch.report_for(f"/f{i}").available_at is not None


def test_upload_impossible_when_too_many_clouds_dead():
    """With four clouds down, the security cap (2 blocks/cloud) makes
    k = 3 unreachable: the batch ends with the file unavailable."""
    sim, clouds, conns, pipeline = make_env(FAST, [0.0] * 5, seed=6)
    for cloud in clouds[1:]:
        cloud.set_available(False)
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, _ = make_file(pipeline)
    batch = sim.run_process(scheduler.run_batch([file]))
    report = batch.report_for("/f")
    assert report.available_at is None
    assert report.degraded


def test_cloud_recovery_next_batch():
    """Dead-cloud state is per batch: a recovered cloud participates in
    the next batch and regains its fair share."""
    sim, clouds, conns, pipeline = make_env(FAST, [0.0] * 5, seed=7)
    clouds[4].set_available(False)
    first = UploadScheduler(sim, conns, pipeline, CONFIG)
    file_a, _ = make_file(pipeline, seed=20, path="/a")
    batch = sim.run_process(first.run_batch([file_a]))
    assert batch.report_for("/a").degraded
    clouds[4].set_available(True)
    second = UploadScheduler(sim, conns, pipeline, CONFIG)
    file_b, _ = make_file(pipeline, seed=21, path="/b")
    batch = sim.run_process(second.run_batch([file_b]))
    report = batch.report_for("/b")
    assert not report.degraded
    assert report.reliable_at is not None
    assert report.blocks_per_cloud["cloud4"] > 0


def test_breaker_stops_degraded_cloud_retry_burn():
    """Regression: dead-cloud state was per batch, so every fresh batch
    re-burned a full failure budget against a cloud already known to be
    down.  With the degradation control plane on, the breaker carries
    that evidence across batches: the second batch dispatches nothing
    to the dead cloud (only bounded half-open probes after cooldown).

    The plain arm documents the pre-fix burn; the degrade arm asserts
    the fix.
    """
    from repro.core.degrade import DegradeController, OPEN

    def run_two_batches(degrade):
        sim, clouds, conns, pipeline = make_env(FAST, [0.0] * 5, seed=11)
        clouds[3].set_available(False)
        config = UniDriveConfig(theta=64 * 1024)
        controller = (
            DegradeController(config) if degrade
            else None
        )
        failed = []
        for round_index in range(2):
            scheduler = UploadScheduler(
                sim, conns, pipeline,
                config if degrade else CONFIG, degrade=controller,
            )
            file, _ = make_file(pipeline, seed=30 + round_index,
                                path=f"/f{round_index}")
            batch = sim.run_process(scheduler.run_batch([file]))
            assert batch.report_for(f"/f{round_index}").available_at \
                is not None
            failed.append(batch.failed_requests)
        return failed, controller

    burned, _ = run_two_batches(degrade=False)
    assert burned[1] > 0, "pre-fix: every batch re-probes the dead cloud"

    guarded, controller = run_two_batches(degrade=True)
    assert guarded[0] > 0, "first batch must gather the evidence"
    assert controller.state("cloud3") == OPEN
    assert guarded[1] == 0, "breaker must suppress the second-batch burn"
