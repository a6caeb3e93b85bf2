"""Whole-artifact identity across code changes.

One small deterministic scenario — two devices, five clouds on skewed
5/10/20/40/80 Mbps links, an outage window over the writer's upload,
one silently rotted block before the reader's download, a cloud the
reader cannot reach at all, plus a forced drop and a flaky link so the
retry paths report too — recorded with tracing, metrics and telemetry
on (each client runs its degradation plane).  The three
artifacts a user would keep (JSONL stream with the metrics snapshot,
Chrome trace, telemetry snapshot) are hashed and compared against
constants: a refactor of the instrumentation may move code, but not a
byte of what it reports.

The only host-clock value the tracer records (``wall_ms`` on ``encode``
spans) is dropped before hashing, as in ``test_noop_identity``.
"""

import hashlib
import io
import json

import numpy as np

from repro import obs
from repro.cloud import SimulatedCloud
from repro.cloud.simulated import CloudConnection
from repro.core.client import UniDriveClient
from repro.core.config import UniDriveConfig
from repro.faults import FaultInjector
from repro.fsmodel import VirtualFileSystem
from repro.netsim import LinkProfile
from repro.obs import export
from repro.simkernel import Simulator

LINK_MBPS = (5.0, 10.0, 20.0, 40.0, 80.0)

#: sha256 of each artifact.  Regenerate only for a change that means to
#: alter what is reported, and say so in CHANGES.md.  Last regenerated
#: when a device holding no base began to read base ∥ delta: the
#: reader's bootstrap now also retries the base read on its flaky
#: cloud0 link beside the delta read (retry_wait 6 → 9 events), so its
#: metadata fetch ends 0.23 s later and every later reader timestamp
#: shifts by as much.
EXPECTED = {
    "jsonl": "6c4904e2d7cd3fdc50ec02ddfb47c23a72ed1073d4910041f191d835dd3b3237",
    "chrome": "58f3425a090045193eafa14614a1acb218c989cfa147a55e5820f84032c8018b",
    "telemetry": "147fb22240d24315ca1a23c63048f3720cda602b526768a5d2b9e19b7068712a",
}


def _fleet(sim):
    """Writer and reader.  The reader's link to cloud2 is inaccessible
    (the provider is blocked where it sits), so every request it sends
    there fails with ``CloudUnavailableError``.  The outage announced
    on cloud3 looks the same to the writer: a client learns a cloud is
    down only from its own requests, so its block uploads there fail
    with that error too, and each device's breaker opens on its own
    evidence."""
    clouds = [SimulatedCloud(sim, f"cloud{i}") for i in range(len(LINK_MBPS))]
    devices = []
    for d in range(2):
        conns = [
            CloudConnection(
                sim, cloud,
                LinkProfile(
                    up_mbps=mbps, down_mbps=mbps, rtt_seconds=0.08,
                    latency_jitter=0.0, failure_rate=0.0, volatility=0.0,
                    fade_probability=0.0, diurnal_amplitude=0.0,
                    accessible=(d, i) != (1, 2),
                ),
                np.random.default_rng([3, d, i]),
            )
            for i, (cloud, mbps) in enumerate(zip(clouds, LINK_MBPS))
        ]
        devices.append(UniDriveClient(
            sim, f"device{d}", VirtualFileSystem(), conns,
            config=UniDriveConfig(theta=64 * 1024, lock_backoff_max=1.0),
            rng=np.random.default_rng([4, d]),
        ))
    return clouds, devices


def _artifacts():
    sim = Simulator()
    clouds, (writer, reader) = _fleet(sim)
    with obs.isolated(sim=sim, telemetry=True) as (tracer, metrics):
        injector = FaultInjector(sim)
        injector.outage(clouds[3], start=0.0, end=20.0)
        # A forced mid-transfer drop on one block upload (scheduler
        # re-dispatch + paced retry), and a flaky first link for the
        # reader so its metadata requests go through RetryPolicy.run's
        # retry and exhausted outcomes.
        injector.force_drops(writer.connections[0], count=1)
        injector.flaky(reader.connections[0], rate=0.9, start=20.0)
        rng = np.random.default_rng(7)
        for i in range(4):
            writer.fs.write_file(f"/f{i}.bin", rng.bytes(160 * 1024),
                                 mtime=sim.now)
        sim.run_process(writer.sync())
        # Rot one stored block on the fastest cloud — the one the reader
        # is sure to fetch from — so its hash check catches the block
        # and refetches a replica.
        victim = sorted(
            e.path for e in clouds[4].store.list_folder(
                writer.config.blocks_dir)
        )[0]
        injector.silent_corruption(clouds[4], victim, at=sim.now)
        sim.run(until=sim.now + 1.0)
        sim.run_process(reader.sync())
        assert reader.fs.read_file("/f0.bin") == writer.fs.read_file("/f0.bin")
        records = tracer.drain()
        for record in records:
            record.attrs.pop("wall_ms", None)
        snapshot = obs.get_telemetry().snapshot()
        jsonl, chrome = io.StringIO(), io.StringIO()
        export.write_jsonl(records, jsonl, metrics=metrics.snapshot())
        export.write_chrome(records, chrome, windows=snapshot["windows"])
    return {
        "jsonl": jsonl.getvalue(),
        "chrome": chrome.getvalue(),
        "telemetry": json.dumps(snapshot, sort_keys=True),
    }, records


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_scenario_exercises_every_sink():
    """The hashes below only pin something if the scenario reaches the
    failure, retry, corruption and health paths."""
    artifacts, records = _artifacts()
    names = {r.name for r in records}
    assert {"sync_round", "upload_batch", "download_batch", "transfer",
            "lock_acquire", "metadata_fetch", "flow_up", "flow_down",
            "fault", "health_transition", "estimator_update"} <= names
    errors = {r.attrs.get("error") for r in records if r.kind == "span"}
    assert "CorruptBlock" in errors and "CloudUnavailableError" in errors
    telemetry = json.loads(artifacts["telemetry"])
    assert telemetry["health"]["cloud3"]["transitions"]
    for counter in ("scheduler_redispatch{", "corrupt_detected{",
                    "retry_outcome{", "estimator_rel_error{"):
        assert '"' + counter in artifacts["jsonl"]


def test_artifacts_match_parent_commit_hashes():
    artifacts, _ = _artifacts()
    assert {name: _sha(text) for name, text in artifacts.items()} == EXPECTED
