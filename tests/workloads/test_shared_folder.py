"""Property suite for the shared-folder scenario driver (paper §5.2).

Three properties, checked over 500+ generated scenarios across all
three conflict policies:

* **no lost update** — every write that a device committed survives
  somewhere (current content, retained conflict, or a later commit
  that deliberately superseded it);
* **convergence** — after quiescence every live device holds an
  identical folder image (same canonical fingerprint, same bytes);
* **bounded divergence** — every committed version reaches the whole
  fleet within the run.

Plus targeted scenarios the generator would only rarely hit: mobile
churn (crash/resume mid-sync), multi-cloud outages, a 16-writer race,
and the all-or-nothing guarantee of every sync round under
crash-at-arbitrary-point schedules.
"""

import posixpath

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import SimulatedCloud
from repro.cloud.errors import NotFoundError
from repro.core import UniDriveConfig
from repro.core.deltasync import DeltaLog
from repro.core.journal import SyncJournal
from repro.core.serialization import deserialize_image
from repro.faults import FaultInjector
from repro.fsmodel import VirtualFileSystem
from repro.netsim import LinkProfile
from repro.simkernel import Simulator
from repro.workloads import make_device
from repro.workloads.shared import (
    SharedScenario,
    churn_profile,
    image_fingerprint,
    run_shared,
)

chaos_smoke = pytest.mark.chaos_smoke


def check_invariants(res):
    """The three scenario properties every run must satisfy."""
    assert res.stalled_devices == [], (
        f"devices gave up: {res.stalled_devices}"
    )
    assert res.converged, (
        f"fingerprints diverged after quiescence: {res.fingerprints}"
    )
    assert res.lost_updates == [], (
        f"lost updates: {[(w.device, w.path, w.version) for w in res.lost_updates]}"
    )
    folders = list(res.folders.values())
    assert all(folder == folders[0] for folder in folders[1:]), (
        "converged metadata but diverged file bytes"
    )
    assert all(w >= 0.0 for w in res.divergence_windows.values())
    assert res.max_divergence <= res.duration


# -- the generated suite ---------------------------------------------------
#
# Each policy gets its own 170-example run (510 total).  Scenario shapes
# are kept small — the properties are about interleavings, not scale —
# and a quarter of the examples add a mid-sync power loss so the
# crash/resume path is exercised throughout the space.  ``derandomize``
# pins the example set: the suite is deterministic run-to-run.

SCENARIO_SETTINGS = settings(
    max_examples=170,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

scenario_params = st.tuples(
    st.integers(min_value=0, max_value=2**20),  # seed
    st.sampled_from([(2, 1), (2, 1), (2, 2), (2, 2), (3, 1), (3, 2)]),
    st.sampled_from([0, 0, 0, 1]),  # churners (25% of examples crash)
    st.sampled_from([0.0, 0.0, 0.25]),  # skip rate
)


def run_policy_scenario(params, policy):
    seed, (writers, rounds), churners, skip_rate = params
    crashes = (
        churn_profile(writers, rounds, churners, seed) if churners else ()
    )
    scenario = SharedScenario(
        writers=writers,
        rounds=rounds,
        policy=policy,
        crashes=crashes,
        skip_rate=skip_rate,
        seed=seed,
    )
    res = run_shared(scenario)
    check_invariants(res)
    assert res.crash_count == len(crashes)
    return res


@SCENARIO_SETTINGS
@given(params=scenario_params)
def test_shared_folder_retain_both(params):
    run_policy_scenario(params, "retain-both")


@SCENARIO_SETTINGS
@given(params=scenario_params)
def test_shared_folder_last_writer_wins(params):
    run_policy_scenario(params, "last-writer-wins")


@SCENARIO_SETTINGS
@given(params=scenario_params)
def test_shared_folder_per_path(params):
    run_policy_scenario(params, "per-path")


# -- targeted scenarios ----------------------------------------------------


def test_mobile_churn_crash_resume_transactional():
    """Two of three devices lose power mid-sync; both resume from their
    journals and the fleet still converges without losing a commit
    (each round lands on a replica whole or not at all)."""
    crashes = churn_profile(3, 3, churners=2, seed=7)
    res = run_shared(SharedScenario(
        writers=3, rounds=3, crashes=crashes, seed=7,
    ))
    assert res.crash_count == len(crashes) == 2
    check_invariants(res)


@chaos_smoke
def test_chaos_three_writers_two_outages():
    """Overlapping cloud outages while three writers race: rounds that
    land inside an outage still reach a quorum (5 clouds, 1-2 dark)."""
    res = run_shared(SharedScenario(
        writers=3, rounds=3, seed=424242,
        outages=((0, 30.0, 120.0), (1, 90.0, 200.0)),
    ))
    check_invariants(res)


@chaos_smoke
def test_sixteen_writers_converge():
    """The tentpole scale point: 16 devices hammering one folder."""
    res = run_shared(SharedScenario(
        writers=16, rounds=2, seed=1601, skip_rate=0.2,
    ))
    check_invariants(res)
    assert len(res.fingerprints) == 16


# -- all-or-nothing rounds -------------------------------------------------
#
# A round's ops and its ``set_version`` travel in one sealed delta blob
# per replica (or one base, when the round merges or folds), so a
# replica holds the whole round or none of it.

TXN_CONFIG = UniDriveConfig(
    theta=64 * 1024,
    lock_stale_seconds=30.0,
    lock_acquire_timeout=900.0,
)

#: Latency-carrying link so a sync round spans real virtual time and a
#: crash can land at any point inside it (lock, blocks, metadata).
SLOW_PROFILE = LinkProfile(
    up_mbps=20.0, down_mbps=40.0, rtt_seconds=0.05,
    latency_jitter=0.0, failure_rate=0.0, volatility=0.0,
    fade_probability=0.0, diurnal_amplitude=0.0,
)

ROUND_PATHS = ("/n0", "/n1", "/n2")


def replica_images(clouds, config):
    """Reconstruct what a reader would see from each cloud *alone*."""
    out = {}
    for cloud in clouds:
        try:
            base = cloud.store.get(posixpath.join(config.meta_dir, "base"))
        except NotFoundError:
            continue
        image = deserialize_image(base, config.metadata_key)
        try:
            blob = cloud.store.get(posixpath.join(config.meta_dir, "delta"))
        except NotFoundError:
            blob = None
        if blob:
            log = DeltaLog.from_bytes(blob, config.metadata_key)
            marker = log.base_marker()
            if marker >= 0 and marker != image.version.counter:
                continue  # corrupt pair: a reader skips this replica
            log.apply_to(image)
        out[cloud.cloud_id] = image
    return out


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    delay=st.floats(min_value=0.0, max_value=2.0,
                    allow_nan=False, allow_infinity=False),
)
def test_transactional_round_is_all_or_nothing(seed, delay):
    """Kill the committer ``delay`` seconds into its sync round; every
    cloud replica must show either none of the round or all of it —
    never a partial round — and the resumed device re-lands the round
    exactly once."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]

    seeder = make_device(sim, clouds, "seeder", seed * 7 + 1,
                         config=TXN_CONFIG)
    seeder.fs.write_file("/seed", rng.bytes(512), mtime=sim.now)
    assert sim.run_process(seeder.sync()).committed_version == 1

    fs = VirtualFileSystem()
    journal = SyncJournal()
    writer = make_device(sim, clouds, "writer", seed * 7 + 2,
                         link=SLOW_PROFILE, config=TXN_CONFIG, fs=fs,
                         journal=journal)
    sim.run_process(writer.sync())  # adopt v1
    for path in ROUND_PATHS:
        fs.write_file(path, rng.bytes(2048), mtime=sim.now)
    fs.write_file("/seed", rng.bytes(700), mtime=sim.now)  # divergent edit

    injector = FaultInjector(sim)
    proc = sim.process(writer.sync())
    injector.client_crash(writer, proc, at=sim.now + delay)
    sim.run()

    round_paths = set(ROUND_PATHS)
    for cloud_id, image in replica_images(clouds, TXN_CONFIG).items():
        present = round_paths & set(image.files)
        if image.version.counter >= 2:
            assert present == round_paths, (
                f"{cloud_id}: partial round visible: {sorted(present)}"
            )
            assert image.files["/seed"].current.size == 700
        else:
            assert not present, (
                f"{cloud_id}: round paths at old version: {sorted(present)}"
            )
            assert image.files["/seed"].current.size == 512

    # Resume from the journal and finish the round.
    resumed = make_device(
        sim, clouds, "writer", seed * 7 + 3, config=TXN_CONFIG, fs=fs,
        journal=SyncJournal.from_bytes(journal.to_bytes()),
    )
    committed = None
    for _ in range(4):
        report = sim.run_process(resumed.sync())
        if report.committed_version is not None or not report.changed_anything:
            committed = report
            break
        sim.run_process(_wait(sim, 3.0))
    assert committed is not None
    sim.run_process(_wait(sim, 1.0))
    sim.run_process(seeder.sync())

    assert image_fingerprint(seeder.image) == image_fingerprint(resumed.image)
    for path in ROUND_PATHS:
        entry = seeder.image.files[path]
        assert entry.conflicts == [], f"{path}: round applied twice"


def _wait(sim, seconds):
    yield sim.timeout(seconds)
