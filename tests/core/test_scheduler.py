"""Tests for upload/download block scheduling (paper §6.2)."""

import numpy as np
import pytest

from _sched_env import CONFIG, N_CLOUDS, make_env
from repro.core.config import UniDriveConfig
from repro.core.pipeline import BlockPipeline
from repro.core.probing import ThroughputEstimator
from repro.core.scheduler import (
    DownloadScheduler,
    FileDownload,
    FileUpload,
    UploadScheduler,
)
from repro.simkernel import Simulator


def make_file(pipeline, path="/f.bin", size=200 * 1024, seed=1):
    content = np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()
    segments = [
        (pipeline.make_record(seg), seg.data)
        for seg in pipeline.segment_file(content)
    ]
    return FileUpload(path=path, segments=segments), content


def run_upload(sim, scheduler, files):
    return sim.run_process(scheduler.run_batch(files))


def test_upload_reaches_available_and_reliable():
    sim, clouds, conns, pipeline = make_env()
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, _ = make_file(pipeline)
    report = run_upload(sim, scheduler, [file]).report_for("/f.bin")
    assert report.available_at is not None
    assert report.reliable_at is not None
    assert report.available_at <= report.reliable_at
    assert not report.degraded


def test_upload_stores_fair_share_on_every_cloud():
    sim, clouds, conns, pipeline = make_env()
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, _ = make_file(pipeline)
    run_upload(sim, scheduler, [file])
    for cloud in clouds:
        entries = cloud.store.list_folder(CONFIG.blocks_dir)
        # fair share = ceil(3/3) = 1 block per segment per cloud.
        assert len(entries) >= len(file.segments)


def test_security_cap_never_exceeded():
    """No cloud may ever hold more than ceil(k/(Ks-1))-1 = 2 blocks/segment."""
    sim, clouds, conns, pipeline = make_env(up_speeds=[50, 1, 1, 1, 1])
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, _ = make_file(pipeline)
    run_upload(sim, scheduler, [file])
    for cloud in clouds:
        per_segment = {}
        for entry in cloud.store.list_folder(CONFIG.blocks_dir):
            seg_id = entry.name.rsplit(".", 1)[0]
            per_segment[seg_id] = per_segment.get(seg_id, 0) + 1
        for count in per_segment.values():
            assert count <= 2


def test_over_provisioning_uses_fast_clouds_more():
    sim, clouds, conns, pipeline = make_env(up_speeds=[40, 40, 2, 2, 2])
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, _ = make_file(pipeline, size=500 * 1024)
    report = run_upload(sim, scheduler, [file]).report_for("/f.bin")
    counts = report.blocks_per_cloud
    fast_mean = (counts["cloud0"] + counts["cloud1"]) / 2
    slow_mean = (counts["cloud2"] + counts["cloud3"] + counts["cloud4"]) / 3
    # Fast clouds absorb over-provisioned blocks up to the security cap.
    assert fast_mean > slow_mean
    n_segments = len(file.segments)
    assert counts["cloud0"] == 2 * n_segments  # cap = 2 blocks/segment


def test_over_provisioning_improves_availability_time():
    """The headline effect: availability beats the no-overprovision
    benchmark when cloud speeds are skewed."""
    # Only two fast clouds: availability (k=3) then needs a slow
    # cloud's fair block unless over-provisioning fills in.
    speeds = [40, 40, 1, 1, 1]
    file_size = 2 * 1024 * 1024
    big_config = UniDriveConfig(theta=512 * 1024)  # transfer-dominated

    times = {}
    for over_provision, dynamic in [(True, True), (False, False)]:
        sim, clouds, conns, _ = make_env(up_speeds=speeds)
        pipeline = BlockPipeline(big_config, N_CLOUDS)
        scheduler = UploadScheduler(
            sim, conns, pipeline, big_config,
            over_provision=over_provision, dynamic=dynamic,
        )
        file, _ = make_file(pipeline, size=file_size)
        report = run_upload(sim, scheduler, [file]).report_for("/f.bin")
        times[(over_provision, dynamic)] = report.available_duration

    assert times[(True, True)] < times[(False, False)] / 2


def test_upload_callback_fires_per_block():
    sim, clouds, conns, pipeline = make_env()
    seen = []
    scheduler = UploadScheduler(
        sim, conns, pipeline, CONFIG,
        on_block_uploaded=lambda sid, idx, cid: seen.append((sid, idx, cid)),
    )
    file, _ = make_file(pipeline)
    run_upload(sim, scheduler, [file])
    assert len(seen) >= 5 * len(file.segments)  # >= normal block count
    assert len(set(seen)) == len(seen)  # no duplicate callbacks


def test_upload_tolerates_dead_cloud():
    sim, clouds, conns, pipeline = make_env()
    clouds[4].set_available(False)
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, _ = make_file(pipeline)
    report = run_upload(sim, scheduler, [file]).report_for("/f.bin")
    assert report.available_at is not None  # availability survives
    assert report.degraded  # but fair shares could not be met
    assert report.reliable_at is None


def test_batch_availability_first_ordering():
    """Files become available roughly in submission order."""
    sim, clouds, conns, pipeline = make_env()
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    files = [make_file(pipeline, f"/f{i}", size=150 * 1024, seed=i)[0]
             for i in range(5)]
    batch = run_upload(sim, scheduler, files)
    times = [batch.report_for(f"/f{i}").available_at for i in range(5)]
    assert all(t is not None for t in times)
    # Content-defined chunking makes file sizes differ slightly and all
    # clouds are equally fast here, so assert the trend rather than a
    # strict order: early files complete before late files on average.
    assert sum(times[:2]) / 2 < sum(times[3:]) / 2


def test_batch_all_available_before_any_beyond_fair_reliability():
    """Two-phase: last availability <= first time a reliability-phase
    top-up completes after availability of all files."""
    sim, clouds, conns, pipeline = make_env(up_speeds=[30, 30, 30, 3, 3])
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    files = [make_file(pipeline, f"/f{i}", size=150 * 1024, seed=10 + i)[0]
             for i in range(3)]
    batch = run_upload(sim, scheduler, files)
    last_available = batch.last_available_at
    reliable_times = [batch.report_for(f"/f{i}").reliable_at for i in range(3)]
    assert last_available is not None
    assert all(t is not None for t in reliable_times)
    assert last_available <= max(reliable_times)


def test_download_roundtrip():
    sim, clouds, conns, pipeline = make_env()
    estimator = ThroughputEstimator()
    up = UploadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    file, content = make_file(pipeline, size=300 * 1024)
    records = [record for record, _ in file.segments]
    run_upload(sim, up, [file])
    down = DownloadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    batch = sim.run_process(
        down.run_batch([FileDownload("/f.bin", records)])
    )
    report = batch.report_for("/f.bin")
    assert report.content == content
    assert report.completed_at is not None


def test_download_requests_no_more_than_k_blocks():
    sim, clouds, conns, pipeline = make_env()
    up = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, content = make_file(pipeline, size=300 * 1024)
    records = [record for record, _ in file.segments]
    run_upload(sim, up, [file])
    payload_before = sum(c.traffic.payload_down for c in conns)
    down = DownloadScheduler(sim, conns, pipeline, CONFIG)
    sim.run_process(down.run_batch([FileDownload("/f.bin", records)]))
    payload = sum(c.traffic.payload_down for c in conns) - payload_before
    expected = sum(
        r.k * pipeline.code.shard_size(r.size) for r in records
    )
    assert payload == expected  # exactly k blocks per segment, no waste


def test_download_survives_n_minus_kr_outages():
    sim, clouds, conns, pipeline = make_env()
    up = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, content = make_file(pipeline, size=200 * 1024)
    records = [record for record, _ in file.segments]
    run_upload(sim, up, [file])
    # K_r = 3 of 5: kill any 2 clouds.
    clouds[1].set_available(False)
    clouds[3].set_available(False)
    down = DownloadScheduler(sim, conns, pipeline, CONFIG)
    batch = sim.run_process(
        down.run_batch([FileDownload("/f.bin", records)])
    )
    assert batch.report_for("/f.bin").content == content


def test_download_fails_gracefully_beyond_reliability():
    """With only one cloud alive (K_s=2 cap), reconstruction must fail."""
    sim, clouds, conns, pipeline = make_env()
    up = UploadScheduler(sim, conns, pipeline, CONFIG)
    file, _ = make_file(pipeline, size=200 * 1024)
    records = [record for record, _ in file.segments]
    run_upload(sim, up, [file])
    for cloud in clouds[1:]:
        cloud.set_available(False)
    down = DownloadScheduler(sim, conns, pipeline, CONFIG)
    batch = sim.run_process(
        down.run_batch([FileDownload("/f.bin", records)])
    )
    report = batch.report_for("/f.bin")
    assert report.content is None
    assert report.completed_at is None


def test_download_prefers_probed_fast_clouds():
    sim, clouds, conns, pipeline = make_env(up_speeds=[40, 40, 2, 2, 2])
    estimator = ThroughputEstimator()
    up = UploadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    file, content = make_file(pipeline, size=2 * 1024 * 1024)
    records = [record for record, _ in file.segments]
    run_upload(sim, up, [file])
    # Prime the download estimator: fast clouds also download faster.
    for i, conn in enumerate(conns):
        estimator.record(conn.cloud_id, "down", 1000 * (100 if i < 2 else 1), 1.0)
    before = [c.traffic.payload_down for c in conns]
    down = DownloadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    batch = sim.run_process(
        down.run_batch([FileDownload("/f.bin", records)])
    )
    assert batch.report_for("/f.bin").content == content
    gained = [c.traffic.payload_down - b for c, b in zip(conns, before)]
    assert gained[0] + gained[1] > gained[2] + gained[3] + gained[4]


def test_empty_batches():
    sim, clouds, conns, pipeline = make_env()
    up = UploadScheduler(sim, conns, pipeline, CONFIG)
    report = sim.run_process(up.run_batch([]))
    assert report.files == []
    down = DownloadScheduler(sim, conns, pipeline, CONFIG)
    batch = sim.run_process(down.run_batch([]))
    assert batch.files == []


def test_scheduler_requires_connections():
    sim = Simulator()
    pipeline = BlockPipeline(CONFIG, N_CLOUDS)
    with pytest.raises(ValueError):
        UploadScheduler(sim, [], pipeline, CONFIG)
    with pytest.raises(ValueError):
        DownloadScheduler(sim, [], pipeline, CONFIG)


def test_shared_segment_uploaded_once():
    """Two files with identical content share segment upload work."""
    sim, clouds, conns, pipeline = make_env()
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    file_a, content = make_file(pipeline, "/a.bin", size=150 * 1024, seed=5)
    file_b = FileUpload(path="/b.bin", segments=list(file_a.segments))
    batch = run_upload(sim, scheduler, [file_a, file_b])
    assert batch.report_for("/a.bin").available_at is not None
    assert batch.report_for("/b.bin").available_at is not None
    # Each unique block path exists exactly once per cloud.
    total_blocks = sum(
        len(cloud.store.list_folder(CONFIG.blocks_dir)) for cloud in clouds
    )
    unique_needed = len({r.segment_id for r, _ in file_a.segments})
    assert total_blocks <= unique_needed * pipeline.n


def test_batch_releases_its_encode_states(monkeypatch):
    """A finished batch leaves no encoded matrix cached; uploading the
    same segments again prepares each once more, to the same blocks and
    digests."""
    sim, clouds, conns, pipeline = make_env()
    prepares = []
    prepare = pipeline.code.prepare
    monkeypatch.setattr(
        pipeline.code, "prepare", lambda data: prepares.append(1) or prepare(data)
    )
    encode = pipeline.encode_block_with_digest
    batches = []

    def recording_encode(segment_id, data, index):
        block, digest = encode(segment_id, data, index)
        batches[-1][(segment_id, index)] = (block, digest)
        return block, digest

    monkeypatch.setattr(pipeline, "encode_block_with_digest", recording_encode)
    for _ in range(2):
        batches.append({})
        file, _ = make_file(pipeline)
        run_upload(sim, UploadScheduler(sim, conns, pipeline, CONFIG), [file])
        segment_ids = {record.segment_id for record, _ in file.segments}
        assert len(prepares) == len(batches) * len(segment_ids)
        assert not segment_ids & set(pipeline._encode_cache)
    assert batches[0] == batches[1]
