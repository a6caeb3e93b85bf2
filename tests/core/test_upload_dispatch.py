"""Upload dispatch: same-instant ordering pins, work bounds, shutdown.

The upload scheduler parks idle connection slots and wakes them with
one dispatch step per progress pulse.  The two sha256 pins below were
generated with the earlier design (one worker process per slot, every
parked worker resumed on every pulse) and must not move: they fix the
order of every request, RNG draw and breaker transition in
configurations the golden figures do not reach.
"""

import hashlib

import numpy as np

import _sched_env as sched_env
from _sched_env import log_requests
from repro.core.config import UniDriveConfig
from repro.core.degrade import DeadlineBudget, DegradeController
from repro.core.retry import RetryPolicy
from repro.core.scheduler import FileUpload, UploadScheduler
from repro.faults import FaultInjector
from repro.workloads.trial import run_trial

CONFIG = UniDriveConfig(theta=64 * 1024)
SPEEDS = [20.0, 12.0, 8.0, 5.0, 3.0]


def make_env(config, failure_rate, seed):
    """Five clouds on SPEEDS with jittery latency; ``log`` collects
    every request."""
    sim, clouds, conns, pipeline = sched_env.make_env(
        SPEEDS, [failure_rate] * 5, seed, config, latency_jitter=0.2,
    )
    return sim, clouds, conns, pipeline, log_requests(sim, conns)


def make_files(pipeline, count, sizes, seed):
    rng = np.random.default_rng(seed)
    files = []
    for i in range(count):
        nbytes = int(rng.integers(*sizes)) if isinstance(sizes, tuple) \
            else sizes
        content = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        segments = [
            (pipeline.make_record(seg), seg.data)
            for seg in pipeline.segment_file(content)
        ]
        files.append(FileUpload(path=f"/f{i}", segments=segments))
    return files


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def degrade_budget_digest():
    """5 clouds x 5 slots; forced mid-transfer drops on cloud1, cloud3
    killed by an outage (its fair queue abandoned), breakers on, and a
    round budget that expires while blocks are still in flight."""
    config = UniDriveConfig(theta=64 * 1024)
    sim, clouds, conns, pipeline, log = make_env(config, 0.05, seed=40)
    files = make_files(pipeline, 6, (90_000, 260_000), seed=5)
    injector = FaultInjector(sim)
    injector.force_drops(conns[1], count=3)
    injector.outage(clouds[3], start=0.25)
    degrade = DegradeController(config)
    scheduler = UploadScheduler(
        sim, conns, pipeline, config, degrade=degrade,
        budget=DeadlineBudget(sim, 0.5),
    )
    batch = sim.run_process(scheduler.run_batch(files))
    assert batch.finished_at > 0.5  # the budget expired mid-batch
    outcomes = {entry[4] for entry in log}
    assert {"ok", "RequestFailedError", "CloudUnavailableError"} <= outcomes
    assert any(report.degraded for report in batch.files)
    assert degrade.state("cloud3") == "open"
    reports = [
        (r.path, r.available_at, r.reliable_at, r.degraded,
         sorted(r.blocks_per_cloud.items()))
        for r in batch.files
    ]
    return digest(log, reports, batch.finished_at, batch.failed_requests,
                  degrade.snapshot(), sim.now)


def test_request_order_pinned_with_degrade_budget_drops_and_outage():
    assert degrade_budget_digest() == (
        "45029b0b9a1f1046fffbd678293791216e826e29b0fbc6c1e9f497c880d5fa2e"
    )


def trial_digest():
    result = run_trial(n_users=60, uploads_per_user=4, seed=3,
                       payload="synthetic")
    records = [
        (r.user, r.location, r.t, r.size, r.duration, r.succeeded)
        for r in result.records
    ]
    assert len(records) == 240
    return digest(records, result.api_requests, result.api_failures)


def test_trial_records_pinned():
    assert trial_digest() == (
        "637b2d55dccf6df1897dd44486bccfd67e6f4db6704199aac16db2a5950de8bd"
    )


def test_dispatch_work_is_linear_in_requests():
    """Four one-segment files on 5 clouds x 5 slots with transient
    failures.  Every request costs one pick, and a pulse asks only the
    slots whose cloud may still act; waking every parked worker on every
    pulse cost ~460 _next_task calls and ~225 kernel steps here."""
    sim, _clouds, conns, pipeline, log = make_env(CONFIG, 0.1, seed=0)
    files = make_files(pipeline, 4, 60_000, seed=9)
    assert sum(len(f.segments) for f in files) == 4
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    calls = []
    pick = scheduler._next_task

    def counted(cloud_id, peek=False):
        calls.append(peek)
        return pick(cloud_id, peek)

    scheduler._next_task = counted
    batch = sim.run_process(scheduler.run_batch(files))
    assert all(report.reliable_at is not None for report in batch.files)
    requests = len(log)
    blocks = sum(len(record.locations)
                 for file in files for record, _ in file.segments)
    assert requests == blocks + batch.failed_requests
    assert batch.failed_requests > 0
    slots = len(conns) * CONFIG.connections_per_cloud
    assert len(calls) <= 4 * requests + slots + len(conns)
    assert sim.steps <= 215


def test_abort_with_slots_parked_ends_when_backoff_worker_retires():
    """One slot per cloud; cloud0's first payload drops and its worker
    backs off for 5 s while the other four slots finish and park.  An
    abort then retires the parked slots at once, and the batch ends
    exactly when the backing-off worker wakes and retires."""
    config = UniDriveConfig(theta=64 * 1024, connections_per_cloud=1)
    sim, _clouds, conns, pipeline, log = make_env(config, 0.0, seed=3)
    FaultInjector(sim).force_drops(conns[0], count=1)
    files = make_files(pipeline, 1, 60_000, seed=9)
    scheduler = UploadScheduler(
        sim, conns, pipeline, config,
        retry_policy=RetryPolicy(base_delay=5.0, jitter=0.0),
    )
    abort_at = 2.0

    def abort():
        yield sim.timeout(abort_at)
        scheduler.abort()

    sim.process(abort())
    batch = sim.run_process(scheduler.run_batch(files))
    failures = [entry for entry in log if entry[4] != "ok"]
    assert len(failures) == 1 and failures[0][2] == "cloud0"
    # Every slot but cloud0's was idle when the abort came ...
    assert all(entry[1] < abort_at for entry in log)
    assert scheduler._inflight_total == 0
    # ... and cloud0's worker ran out its back-off, then retired.
    assert batch.finished_at == failures[0][1] + 5.0
    assert batch.report_for("/f0").reliable_at is None


def test_kill_workers_mid_batch_stops_every_request_and_process():
    sim, _clouds, conns, pipeline, log = make_env(CONFIG, 0.05, seed=1)
    files = make_files(pipeline, 6, (90_000, 260_000), seed=5)
    scheduler = UploadScheduler(sim, conns, pipeline, CONFIG)
    batch = sim.process(scheduler.run_batch(files))
    killed = []
    kill_at = 0.3

    def crash():
        yield sim.timeout(kill_at)
        assert scheduler._inflight_total > 0
        killed.extend(slot.proc for slot in scheduler._slots
                      if slot.proc is not None)
        scheduler.kill_workers()

    sim.process(crash())
    sim.run()
    assert killed and not any(proc.is_alive for proc in killed)
    assert not batch.is_alive
    assert log and all(entry[0] < kill_at for entry in log)
