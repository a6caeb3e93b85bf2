"""Production dispatcher ⇔ reference decision ladder equivalence.

The dispatchers in :mod:`repro.core.scheduler` (per-cloud ready heaps
with parked segments, in both directions; the static benchmark
baseline: the same dispatchers behind a file gate) must be
*behavior-preserving*: for any seeded batch they must pick exactly the
blocks the original O(files x segments) ladders in
``reference_dispatch.py`` pick, in the same order, yielding
byte-identical batch reports (placements, timestamps, degraded flags).
These tests run the same seeded scenario twice — once with the
production dispatcher and dispatch step, once with the reference
ladder and the broadcast wake-up (every parked slot asked on every
pulse) swapped in — in every ``(over_provision, dynamic)`` mode for
uploads and both ``dynamic`` modes for downloads, and compare
everything observable, the full pick log and every breaker move
included.

The same scenario helpers carry the simulated-clock properties of the
production dispatchers alone: scans per block flat in the batch size,
idle slots left unasked, instrumentation that perturbs nothing, hedged
reads that cut the tail.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _sched_env import CONFIG, N_CLOUDS, make_env, profile
from reference_dispatch import (
    dispatch_reference,
    next_ready_reference,
    next_request_reference,
)
from repro import obs
from repro.cloud.errors import NotFoundError, RequestFailedError
from repro.core.config import UniDriveConfig
from repro.core.degrade import DegradeController
from repro.core.probing import DOWNLOAD, ThroughputEstimator
from repro.core.scheduler import (
    DownloadScheduler,
    FileDownload,
    FileUpload,
    UploadScheduler,
)
from repro.faults import FaultInjector
from repro.workloads import connect

#: Every ``(over_provision, dynamic)`` pair; the first is production's.
UPLOAD_MODES = [(True, True), (False, True), (True, False), (False, False)]
#: Both ``dynamic`` values; the first is production's.
DOWNLOAD_MODES = [True, False]


def make_batch(pipeline, count=6, seed=3, size=None):
    """A batch with varied sizes (or one-segment files of ``size``
    bytes), one shared-content pair, and one zero-byte file (zero
    segments) to cover the vacuous-progress edge."""
    rng = np.random.default_rng(seed)
    files = []
    for i in range(count):
        nbytes = size or int(rng.integers(30 * 1024, 250 * 1024))
        content = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        segments = [
            (pipeline.make_record(seg), seg.data)
            for seg in pipeline.segment_file(content)
        ]
        files.append(FileUpload(path=f"/f{i}", segments=segments))
    # Duplicate content: shares _SegmentUploadState objects across files.
    files.append(FileUpload(path="/dup", segments=list(files[0].segments)))
    files.append(FileUpload(path="/empty", segments=[]))
    return files


def ask_every_slot(scheduler):
    """Wake every parked slot on every pulse: the reference run asks
    each slot the production dispatch step skips as unable to act."""
    scheduler._dispatch = partial(dispatch_reference, scheduler)


def stored_blocks(cloud):
    try:
        entries = cloud.store.list_folder(CONFIG.blocks_dir)
    except NotFoundError:  # cloud never received a block
        return ()
    return tuple(sorted(entry.name for entry in entries))


def upload_snapshot(batch, files, clouds):
    """Everything observable about an upload batch, as plain data."""
    return {
        "batch": (batch.started_at, batch.finished_at,
                  batch.failed_requests),
        "reports": [
            (r.path, r.size, r.started_at, r.available_at, r.reliable_at,
             r.degraded, tuple(sorted(r.blocks_per_cloud.items())))
            for r in batch.files
        ],
        "locations": [
            (record.segment_id, tuple(sorted(record.locations.items())))
            for file in files
            for record, _ in file.segments
        ],
        "stores": [stored_blocks(cloud) for cloud in clouds],
    }


def breaker_moves(degrade):
    """Where a skipped ask would move the clock: every breaker move of
    ``degrade`` (None: no controller)."""
    return {} if degrade is None else {
        cid: tuple(breaker.transitions)
        for cid, breaker in sorted(degrade._breakers.items())
    }


def log_picks(up):
    """Record every block ``up`` hands a slot as ``(sim time, cloud,
    segment, index, fair)``, in the order the slots take them."""
    picks = []
    claim = up._claim

    def logged(slot):
        task = claim(slot)
        if task is not None:
            picks.append((up.sim.now, slot.cloud_id,
                          task.state.record.segment_id, task.index,
                          task.is_fair))
        return task

    up._claim = logged
    return picks


def run_upload_scenario(reference, up_speeds, failure_rates=None,
                        kill_clouds=(), over_provision=True, dynamic=True,
                        seed=0, count=6, size=None, config=CONFIG,
                        cooldown=None):
    """Upload one batch; with a ``cooldown`` (seconds), armed like a
    client's batches, by a controller whose breakers half-open that
    long after they open.  ``config`` is the scheduler's and the
    controller's."""
    sim, clouds, conns, pipeline = make_env(
        up_speeds, failure_rates, seed=seed
    )
    for cloud_index in kill_clouds:
        clouds[cloud_index].set_available(False)
    degrade = None
    if cooldown is not None:
        degrade = DegradeController(config)
        for conn in conns:
            degrade.breaker(conn.cloud_id).cooldown = cooldown
    scheduler = UploadScheduler(
        sim, conns, pipeline, config, estimator=ThroughputEstimator(),
        over_provision=over_provision, dynamic=dynamic, degrade=degrade,
    )
    if reference:
        ask_every_slot(scheduler)
        scheduler._next_ready = partial(next_ready_reference, scheduler)
    picks = log_picks(scheduler)
    files = make_batch(pipeline, count=count, size=size)
    batch = sim.run_process(scheduler.run_batch(files))
    snapshot = upload_snapshot(batch, files, clouds)
    snapshot["picks"] = picks
    snapshot["breakers"] = breaker_moves(degrade)
    return snapshot, scheduler


def assert_upload_equivalent(modes=UPLOAD_MODES, **kwargs):
    """Compare both dispatchers in each mode; returns the snapshots."""
    snapshots = []
    for over_provision, dynamic in modes:
        mode = dict(over_provision=over_provision, dynamic=dynamic)
        fast, fast_sched = run_upload_scenario(False, **mode, **kwargs)
        ref, ref_sched = run_upload_scenario(True, **mode, **kwargs)
        assert fast["picks"] == ref["picks"], mode
        assert fast == ref, mode
        # The point of the ready heaps: same decisions, fewer visits.
        assert fast_sched._dispatch_scans <= ref_sched._dispatch_scans
        snapshots.append(fast)
    return snapshots


def test_upload_equivalence_homogeneous():
    for snapshot in assert_upload_equivalent(up_speeds=[8.0] * N_CLOUDS):
        assert all(r[3] is not None for r in snapshot["reports"])


def test_upload_equivalence_skewed_speeds():
    assert_upload_equivalent(up_speeds=[40, 25, 8, 2, 1], seed=11)


def test_upload_equivalence_no_over_provision():
    assert_upload_equivalent(
        modes=[mode for mode in UPLOAD_MODES if not mode[0]],
        up_speeds=[30, 10, 5, 5, 1], seed=4,
    )


def test_upload_equivalence_flaky_clouds():
    for snapshot in assert_upload_equivalent(
        up_speeds=[20, 20, 10, 10, 5],
        failure_rates=[0.0, 0.25, 0.0, 0.35, 0.1],
        seed=7,
    ):
        assert snapshot["batch"][2] > 0  # failures actually happened


def test_upload_equivalence_dead_cloud():
    for snapshot in assert_upload_equivalent(
        up_speeds=[20, 20, 20, 20, 20], kill_clouds=(4,), seed=2
    ):
        # The abandon/degraded path was exercised.
        assert any(r[5] for r in snapshot["reports"])


def test_upload_slots_wait_out_a_refused_clouds_back_off():
    # cloud1's drops open its breaker (2 s cooldown); the batch keeps the
    # cloud alive.  While cloud4's last worker sits out a back-off,
    # nothing is in flight and no admitted cloud has a pick.  That
    # worker's own retire check at 2.395 s half-opens cloud1's breaker
    # and finds cloud1's work, so it parks; a slot core that had let
    # the idle slots, cloud1's among them, retire during the wait left
    # nothing to ask for that work, and the batch ran out of events
    # (SimulationError: process starved).
    snapshot, = assert_upload_equivalent(
        modes=UPLOAD_MODES[:1], up_speeds=[1] * N_CLOUDS,
        failure_rates=[0, .6, 0, 0, .1], seed=0, count=4, cooldown=2.0,
        config=UniDriveConfig(theta=CONFIG.theta, cloud_failure_threshold=8),
    )
    assert all(r[3] is not None for r in snapshot["reports"])  # available
    half_open = [t for t, *move in snapshot["breakers"]["cloud1"]
                 if move == ["open", "half-open"]]
    assert half_open and half_open[0] < snapshot["batch"][1]


def test_shared_controller_upload_batches_wait_out_a_back_off():
    # A client's controller (30 s breaker cooldown) and estimator,
    # shared by two batches on slow, flaky links.  In the second,
    # cloud2's half-open probe fails at 30.399 s and its worker backs
    # off while the other slots, cloud0's among them, go idle; the
    # worker's retire check at 30.899 s half-opens cloud0's breaker,
    # opened in the first batch.  The same starvation as above, with
    # the breaker's history carried across batches.
    sim, _clouds, conns, pipeline = make_env(
        [1.0, 0.05, 0.25, 0.05, 5.0], [0.4, 0.2, 0.4, 0.0, 0.0],
        seed=42848,
    )
    degrade, estimator = DegradeController(CONFIG), ThroughputEstimator()
    for seed in (3, 4):
        scheduler = UploadScheduler(sim, conns, pipeline, CONFIG,
                                    estimator=estimator, degrade=degrade)
        batch = sim.run_process(scheduler.run_batch(
            make_batch(pipeline, count=5, seed=seed)))
        assert batch.all_available
    half_open = degrade.breaker("cloud0").transitions[1]
    assert half_open[1:] == ("open", "half-open")
    assert batch.started_at < half_open[0] < batch.finished_at


#: 5/10/20/40/80 Mbps downlinks (``profile`` doubles the uplink figure):
#: the paper's skewed regime, where slow clouds defer most candidates.
SKEWED = [2.5, 5, 10, 20, 40]


def estimates(estimator, cloud_ids):
    """The download estimates of ``cloud_ids``, read from the snapshot
    rather than through ``estimate()``, whose calls a test may count."""
    channels = estimator.snapshot()
    return tuple(
        channels.get(f"{cid}:{DOWNLOAD}", {}).get("estimate", float("inf"))
        for cid in cloud_ids
    )


def log_dispatches(down):
    """Record every dispatch of ``down`` as ``(sim time, cloud, segment,
    index, hedge)`` and, as each fetch starts and settles, what the
    dispatcher decides on besides the segments themselves: ``(sim time,
    download estimate per cloud, failure count per cloud)``.  Each look
    also checks the hedge index against the states it summarizes: a
    fetch is indexed at dispatch iff its cloud has a finite download
    estimate, and no fetch in flight is indexed twice."""
    picks, world = [], []
    fetch = down._fetch_block
    cloud_ids = [c.cloud_id for c in down.connections]

    def indexed():
        return [
            (entry[2].position, entry[3], entry[4])
            for entry in down._hedge_due + down._hedge_eligible
            if entry[2].inflight.get(entry[3]) == entry[4]
        ]

    def look():
        flights = indexed()
        assert len(flights) == len(set(flights))
        world.append((
            down.sim.now,
            estimates(down.estimator, cloud_ids),
            tuple(down._dead[cid] for cid in cloud_ids),
        ))

    def watched(fetching):
        try:
            yield from fetching
        finally:
            look()

    def logged(slot, state, index, hedge=False):
        picks.append((down.sim.now, slot.cloud_id,
                      state.record.segment_id, index, hedge))
        if down._hedge_budget is not None:
            estimate, = estimates(down.estimator, [slot.cloud_id])
            assert ((state.position, index, slot.cloud_id) in indexed()) \
                == (estimate < float("inf"))
        look()
        return watched(fetch(slot, state, index, hedge=hedge))

    down._fetch_block = logged
    return picks, world


class DropFirst:
    """A connection whose first ``count`` downloads fail 10 ms in."""

    def __init__(self, conn, count):
        self._conn = conn
        self.remaining = count

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def download(self, path, ctx=None):
        if self.remaining > 0:
            self.remaining -= 1
            yield self._conn.sim.timeout(0.01)
            raise RequestFailedError(self.cloud_id, "scripted drop")
        return (yield from self._conn.download(path, ctx=ctx))


def download_snapshot(batch, down, picks, world):
    return {
        "batch": (batch.started_at, batch.finished_at,
                  batch.failed_requests),
        "reports": [
            (r.path, r.size, r.started_at, r.completed_at,
             None if r.content is None else hash(r.content))
            for r in batch.files
        ],
        "picks": picks,
        "world": world,
        "hedges": (down.hedges_fired, down.hedged_bytes),
        "breakers": breaker_moves(down._degrade),
    }


def run_download_scenario(reference, down_failure_rates=None,
                          kill_clouds=(), prime=None, seed=0, count=6,
                          size=None, down_speeds=None, link=None,
                          config=CONFIG, disturb=None, warm=False,
                          dynamic=True, cooldown=None):
    """Upload ``count`` files on equal links, then fetch them back.

    The download links may differ from the upload's (``down_speeds``,
    ``down_failure_rates``, ``link`` = extra ``LinkProfile`` fields);
    ``prime`` seeds the download estimates (Mbps per cloud), ``warm``
    earns them with one untroubled fetch of the whole batch, as a
    long-lived client would have; ``config`` is the download
    scheduler's (degradation plane, failure threshold);
    ``disturb(sim, conns, estimator)`` arranges scripted trouble just
    before the batch starts (it may replace entries of ``conns``);
    ``cooldown`` shortens every breaker's open spell (seconds), so one
    batch can see a breaker open, half-open and close.
    """
    sim, clouds, conns, pipeline = make_env(
        [20.0] * N_CLOUDS, seed=seed
    )
    estimator = ThroughputEstimator()
    up = UploadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    files = make_batch(pipeline, count=count, size=size)
    sim.run_process(up.run_batch(files))
    for cloud_index in kill_clouds:
        clouds[cloud_index].set_available(False)
    if down_failure_rates or down_speeds or link:
        # LinkProfile is frozen; wrap the same clouds in fresh
        # connections for the download phase.
        speeds = down_speeds or [20.0] * N_CLOUDS
        rates = down_failure_rates or [0.0] * N_CLOUDS
        conns = connect(sim, clouds, seed + 100, [
            profile(up, rate, **(link or {}))
            for up, rate in zip(speeds, rates)
        ])
    if prime:
        for conn, mbps in zip(conns, prime):
            estimator.record(conn.cloud_id, "down", int(mbps * 125000), 1.0)
    requests = [
        FileDownload(f.path, [record for record, _ in f.segments])
        for f in files
    ]
    if warm:
        sim.run_process(DownloadScheduler(
            sim, conns, pipeline, CONFIG, estimator=estimator,
        ).run_batch(requests))
    if disturb is not None:
        disturb(sim, conns, estimator)
    # Armed like a client's batches.
    degrade = DegradeController(config)
    if cooldown is not None:
        for conn in conns:
            degrade.breaker(conn.cloud_id).cooldown = cooldown
    down = DownloadScheduler(
        sim, conns, pipeline, config, estimator=estimator,
        dynamic=dynamic, degrade=degrade,
    )
    if reference:
        ask_every_slot(down)
        down._next_ready = partial(next_request_reference, down)
    picks, world = log_dispatches(down)
    batch = sim.run_process(down.run_batch(requests))
    return download_snapshot(batch, down, picks, world), down


def assert_download_equivalent(modes=DOWNLOAD_MODES, **kwargs):
    """Compare both dispatchers in each mode; returns the snapshots."""
    snapshots = []
    for dynamic in modes:
        fast, fast_sched = run_download_scenario(False, dynamic=dynamic,
                                                 **kwargs)
        ref, ref_sched = run_download_scenario(True, dynamic=dynamic,
                                               **kwargs)
        assert fast["picks"] == ref["picks"], dynamic
        assert fast == ref, dynamic
        assert fast_sched._dispatch_scans <= ref_sched._dispatch_scans
        snapshots.append(fast)
    return snapshots


def test_download_equivalence_plain():
    for snapshot in assert_download_equivalent(seed=1):
        assert all(r[3] is not None for r in snapshot["reports"])


def test_download_equivalence_primed_estimator():
    assert_download_equivalent(prime=[100, 80, 5, 3, 1], seed=5)


def test_download_equivalence_outages():
    for snapshot in assert_download_equivalent(kill_clouds=(1, 3), seed=9):
        assert all(r[4] is not None for r in snapshot["reports"])  # decoded


def test_download_equivalence_flaky():
    for snapshot in assert_download_equivalent(
        down_failure_rates=[0.0, 0.3, 0.0, 0.4, 0.2], seed=13
    ):
        assert snapshot["batch"][2] > 0


def test_download_equivalence_skewed_many_segments():
    for snapshot in assert_download_equivalent(
        down_speeds=SKEWED, count=60, seed=17
    ):
        assert len({seg for _t, _c, seg, *_ in snapshot["picks"]}) >= 100


def strict_orders(world, a, b):
    """The strict orders seen between two clouds' estimates."""
    return {
        (est[a] > est[b]) - (est[a] < est[b]) for _t, est, _dead in world
    } - {0}


def test_download_equivalence_estimate_order_flips():
    # Two equal-mean volatile links: their EWMA estimates keep crossing,
    # so what cloud0 defers to cloud1 (and back) changes mid-batch.
    for snapshot in assert_download_equivalent(
        down_speeds=[10, 10, 2.5, 20, 40], count=40, seed=19,
        link={"volatility": 0.6, "epoch_seconds": 0.25},
    ):
        assert strict_orders(snapshot["world"], 0, 1) == {-1, 1}


def test_download_equivalence_dead_cloud_revived():
    # cloud3's first two fetches drop at once (dead at the
    # threshold) while its other three connections are still in flight;
    # their late success resets the count and the cloud serves again.
    config = UniDriveConfig(theta=CONFIG.theta, cloud_failure_threshold=2)

    def disturb(sim, conns, estimator):
        conns[3] = DropFirst(conns[3], count=2)

    # Dynamic mode only: there cloud3, primed fastest, asks first and
    # has the other three fetches in flight when it dies.
    snapshot = assert_download_equivalent(
        down_speeds=SKEWED, prime=[5, 10, 20, 160, 80], count=30, seed=23,
        config=config, disturb=disturb,
    )[0]
    died = [
        t for t, _est, dead in snapshot["world"]
        if dead[3] >= config.cloud_failure_threshold
    ]
    assert died
    assert any(
        cloud == "cloud3" and t > died[-1]
        for t, cloud, *_ in snapshot["picks"]
    )


def test_download_equivalence_hedging():
    # Healthy history, then cloud1 browns out 25x: hedges race its
    # outrun fetches, cancel the losers and re-probe the estimator.
    def disturb(sim, conns, estimator):
        FaultInjector(sim).slow_cloud(conns[1], factor=25.0)

    for snapshot in assert_download_equivalent(
        prime=[40] * N_CLOUDS, count=20, seed=29, disturb=disturb,
        config=UniDriveConfig(theta=CONFIG.theta),
    ):
        assert snapshot["hedges"][0] > 0
        assert any(hedge for *_, hedge in snapshot["picks"])


def test_download_equivalence_estimator_moved_from_outside():
    # The injected estimator is shared: something else (another
    # client's batch) keeps rewriting the download estimates while this
    # batch runs, at instants where the scheduler itself does nothing.
    def disturb(sim, conns, estimator):
        def other_batch():
            for step in range(40):
                yield sim.timeout(0.07)
                slow, fast = (0, 4) if step % 2 else (4, 0)
                estimator.record(f"cloud{slow}", DOWNLOAD, 1e4, 1.0)
                estimator.record(f"cloud{fast}", DOWNLOAD, 1e8, 1.0)

        sim.process(other_batch())

    for snapshot in assert_download_equivalent(
        down_speeds=SKEWED, count=40, seed=31, disturb=disturb
    ):
        assert strict_orders(snapshot["world"], 0, 4) == {-1, 1}


def test_download_equivalence_breaker_cycle():
    # cloud1's first three fetches drop at once: its breaker opens
    # (the batch's own failure threshold is higher, so the cloud stays
    # alive), half-opens at the first clock check after the cooldown,
    # and closes on the probe's success, all while hedging is armed.
    config = UniDriveConfig(theta=CONFIG.theta, cloud_failure_threshold=8)

    def disturb(sim, conns, estimator):
        conns[1] = DropFirst(conns[1], count=3)

    for snapshot in assert_download_equivalent(
        down_speeds=SKEWED, count=20, seed=43, config=config,
        cooldown=0.05, disturb=disturb,
    ):
        moves = [(src, dst) for _t, src, dst in snapshot["breakers"]["cloud1"]]
        assert moves == [("closed", "open"), ("open", "half-open"),
                         ("half-open", "closed")]


def test_download_equivalence_spent_probe_moves_defer_verdicts():
    # cloud1's three drops open its breaker; it half-opens after the
    # cooldown and keeps its probe until cloud0, which is down, times
    # out.  In that dispatch step cloud4 first defers to cloud1; then
    # cloud1's probe starts, cloud1 is refused again and stops counting
    # as a faster supplier, and cloud4's next slot must fetch.
    config = UniDriveConfig(theta=CONFIG.theta, cloud_failure_threshold=8)

    def disturb(sim, conns, estimator):
        conns[:] = [DropFirst(conn, count)
                    for conn, count in zip(conns, [0, 3, 2, 0, 1])]

    snapshot = assert_download_equivalent(
        modes=[True], count=2, down_speeds=[1, 2.5, 1, 1, 1],
        kill_clouds=(0,), seed=0, disturb=disturb, cooldown=0.5,
        config=config,
    )[0]
    breakers = snapshot["breakers"]
    (down_at, _src, _dst), = breakers["cloud0"]
    opened, half_open, closed = breakers["cloud1"]
    assert [(src, dst) for _t, src, dst in (opened, half_open, closed)] == [
        ("closed", "open"), ("open", "half-open"), ("half-open", "closed")]
    assert half_open[0] < down_at < closed[0]


def test_download_equivalence_hedge_unparks_a_deferral():
    # A hedge fetches an index that a slower cloud counted as faster
    # supply for a segment it deferred; that segment becomes the slower
    # cloud's pick, so a hedge dispatch must re-queue it (a regular
    # dispatch never has to).
    def disturb(sim, conns, estimator):
        conns[:] = [DropFirst(conn, count)
                    for conn, count in zip(conns, [0, 0, 4, 3, 0])]

    for snapshot in assert_download_equivalent(
        count=12, down_speeds=[10, 40, 1, 1, 5], seed=0, disturb=disturb,
    ):
        assert snapshot["hedges"][0] > 0


def test_gated_slots_wait_out_a_refused_clouds_back_off():
    # Behind the static file gate, cloud2's and cloud4's drops open
    # their breakers; the batch keeps both alive.  While a refused
    # cloud's worker sits out its back-off, no cloud has a pick, yet
    # its next attempt can settle the gate's file and unlock work for
    # every cloud, so the idle slots must stay parked, not retire.  A
    # slot core that retired them there left that work unfetched, and
    # the batch ran out of events (SimulationError: process starved).
    config = UniDriveConfig(theta=CONFIG.theta, cloud_failure_threshold=8)

    def disturb(sim, conns, estimator):
        conns[:] = [DropFirst(conn, count)
                    for conn, count in zip(conns, [0, 0, 3, 0, 3])]

    snapshot, = assert_download_equivalent(
        modes=[False], count=11, down_speeds=[1, 2.5, 1, 1, 1],
        kill_clouds=(3,), seed=0, disturb=disturb, cooldown=0.5,
        config=config,
    )
    assert all(r[4] is not None for r in snapshot["reports"])  # decoded
    assert {cid for cid, moves in snapshot["breakers"].items()
            if ("closed", "open") in [m[1:] for m in moves]} >= {
        "cloud2", "cloud4"}


@st.composite
def download_scripts(draw):
    clouds = st.integers(min_value=0, max_value=N_CLOUDS - 1)
    return {
        "count": draw(st.integers(min_value=1, max_value=14)),
        "down_speeds": draw(st.lists(
            st.sampled_from([1, 2.5, 5, 10, 20, 40]),
            min_size=N_CLOUDS, max_size=N_CLOUDS,
        )),
        "kill_clouds": tuple(draw(st.sets(clouds, max_size=2))),
        "drops": draw(st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=N_CLOUDS, max_size=N_CLOUDS,
        )),
        "pokes": draw(st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=0.5),
                clouds,
                st.sampled_from([1e3, 1e5, 1e7, 1e9]),
            ),
            max_size=6,
        )),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 16)),
        # The breaker arm: a batch failure threshold above the drops,
        # so they open a breaker instead of killing the cloud, and a
        # cooldown short enough to half-open and close it mid-batch.
        "cooldown": draw(st.none() | st.floats(min_value=0.02,
                                               max_value=0.5)),
    }


@settings(max_examples=30, deadline=None)
@given(download_scripts())
def test_download_pick_log_matches_reference(script):
    """Any segment count, link speeds and failure script (outages,
    scripted drops, estimates rewritten from outside, breakers driven
    open, half-open and closed with hedging armed): the ready-heap
    dispatcher, gated or not, asking only the clouds that can act,
    picks what the reference scan picks with every slot asked, and
    every breaker moves at the same instants."""

    def disturb(sim, conns, estimator):
        conns[:] = [
            DropFirst(conn, count)
            for conn, count in zip(conns, script["drops"])
        ]

        def pokes():
            for gap, cloud, rate in script["pokes"]:
                yield sim.timeout(gap)
                estimator.record(f"cloud{cloud}", DOWNLOAD, rate, 1.0)

        sim.process(pokes())

    armed = script["cooldown"] is not None
    assert_download_equivalent(
        count=script["count"], down_speeds=script["down_speeds"],
        kill_clouds=script["kill_clouds"], seed=script["seed"],
        disturb=disturb, cooldown=script["cooldown"],
        config=UniDriveConfig(theta=CONFIG.theta,
                              cloud_failure_threshold=8) if armed else CONFIG,
    )


@st.composite
def upload_scripts(draw):
    clouds = st.integers(min_value=0, max_value=N_CLOUDS - 1)
    return {
        "count": draw(st.integers(min_value=1, max_value=6)),
        "size": draw(st.none() | st.integers(min_value=1024,
                                             max_value=160 * 1024)),
        "up_speeds": draw(st.lists(
            st.sampled_from([1, 2.5, 5, 10, 20, 40]),
            min_size=N_CLOUDS, max_size=N_CLOUDS,
        )),
        "failure_rates": draw(st.lists(
            st.sampled_from([0.0, 0.0, 0.1, 0.3]),
            min_size=N_CLOUDS, max_size=N_CLOUDS,
        )),
        "kill_clouds": tuple(draw(st.sets(clouds, max_size=2))),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 16)),
        # The breaker arm, as in download_scripts.
        "cooldown": draw(st.none() | st.floats(min_value=0.02,
                                               max_value=2.0)),
    }


@settings(max_examples=30, deadline=None)
@given(upload_scripts())
def test_upload_pick_log_matches_reference(script):
    """Any file count and sizes, link speeds, failure rates and dead
    clouds, with or without breakers driven open, half-open and closed,
    in all four ``(over_provision, dynamic)`` modes: the ready-heap
    dispatcher, asking only the clouds that can act, hands out the
    blocks the reference ladder does with every slot asked, in the
    same order, at the same instants, and every breaker moves at the
    same instants."""
    armed = script["cooldown"] is not None
    assert_upload_equivalent(
        **script,
        config=UniDriveConfig(theta=CONFIG.theta,
                              cloud_failure_threshold=8) if armed else CONFIG,
    )


@pytest.mark.parametrize("direction, large", [
    pytest.param("upload", 160, id="upload"),
    pytest.param("download", 320, id="download"),
])
def test_dispatch_scans_per_block_flat(direction, large):
    # Blocked work is not rescanned: with a stable estimate order
    # (equal-size segments on skewed links) the states evaluated per
    # dispatched block must not grow with the batch.  A download scan
    # that rescanned its blocked tail grew ~linearly: 27 -> 1 164 from
    # 10 to 640 segments.
    per_block = {}
    for count in (10, large):
        if direction == "upload":
            snapshot, scheduler = run_upload_scenario(
                reference=False, up_speeds=SKEWED, count=count,
                size=48 * 1024, seed=37,
            )
            blocks = sum(len(stored) for stored in snapshot["stores"])
        else:
            snapshot, scheduler = run_download_scenario(
                reference=False, down_speeds=SKEWED, count=count,
                size=48 * 1024, seed=37,
            )
            assert len(scheduler._ordered) == count
            blocks = len(snapshot["picks"])
        per_block[count] = scheduler._dispatch_scans / blocks
    assert per_block[large] <= 2 * per_block[10]


@pytest.mark.parametrize("count", [1, 2, 4])
def test_idle_upload_slots_are_not_visited(count):
    """On the links and block sizes of the flat-scans test, at the
    small-batch end where slots outnumber blocks (as in a trial fleet's
    uploads): a dispatch step visits at most 3 parked slots per
    uploaded block, counting every slot it asks.  A step that visited
    every parked slot made 23.9, 10.3 and 3.5 visits per block at 1, 2
    and 4 files (215, 185 and 125 visits for 9, 18 and 36 blocks)."""
    snapshot, scheduler = run_upload_scenario(
        reference=False, up_speeds=SKEWED, count=count, size=48 * 1024,
        seed=37,
    )
    blocks = sum(len(stored) for stored in snapshot["stores"])
    assert scheduler._slot_visits <= 3 * blocks


def test_idle_download_slots_are_not_asked(monkeypatch):
    """On the skewed links of test_armed_idle_hedging_costs_nothing,
    where the slow clouds' slots sit parked on defer verdicts: at most
    2 asks that find nothing and 10 ``estimate()`` calls per fetched
    block.  Asking every parked slot on every pulse, the same batch
    made 2.94 empty asks and 50.6 ``estimate()`` calls per block (529
    and 9 106 for 180 blocks)."""
    counts = {"empty": 0, "estimates": 0}
    estimate, claim = ThroughputEstimator.estimate, DownloadScheduler._claim

    def counting_estimate(self, cloud_id, direction):
        counts["estimates"] += 1
        return estimate(self, cloud_id, direction)

    def counting_claim(self, slot):
        task = claim(self, slot)
        counts["empty"] += task is None
        return task

    def disturb(sim, conns, estimator):
        monkeypatch.setattr(ThroughputEstimator, "estimate",
                            counting_estimate)
        monkeypatch.setattr(DownloadScheduler, "_claim", counting_claim)

    snapshot, _ = run_download_scenario(
        reference=False, down_speeds=SKEWED, count=60, seed=37,
        size=48 * 1024, config=UniDriveConfig(theta=CONFIG.theta),
        disturb=disturb,
    )
    blocks = len(snapshot["picks"])
    assert counts["empty"] <= 2 * blocks
    assert counts["estimates"] <= 10 * blocks


def test_instrumentation_perturbs_nothing():
    # Tracer, metrics and telemetry record what happens; turning them
    # on must not change it, nor leave anything behind when they go.
    def both_directions():
        up, _ = run_upload_scenario(
            reference=False, up_speeds=SKEWED, count=12, seed=41
        )
        down, _ = run_download_scenario(
            reference=False, down_speeds=SKEWED, count=12, seed=41
        )
        return up, down

    assert not obs.OBS.enabled
    before = both_directions()
    with obs.isolated(telemetry=True) as (tracer, metrics):
        instrumented = both_directions()
        assert tracer.records and metrics.snapshot()["counters"]
        # ...and a fault-free batch scores every cloud healthy.
        health = obs.OBS.telemetry.snapshot()["health"]
        assert len(health) == N_CLOUDS
        assert all(entry["state"] == "healthy" for entry in health.values())
    assert before == instrumented == both_directions()


def test_hedged_reads_cut_tail_latency_within_byte_budget():
    # A client with healthy throughput history, then cloud1 browns out
    # 25x (slow, never failing).  Same placement, same links, with a
    # hedge budget and with none: hedging must cut the p99 block
    # fetch by >= 30 % for <= 10 % extra download bytes.
    def disturb(sim, conns, estimator):
        FaultInjector(sim).slow_cloud(conns[1], factor=25.0)

    unhedged = UniDriveConfig(theta=CONFIG.theta, hedge_bytes_fraction=0.0)
    hedging = UniDriveConfig(theta=CONFIG.theta)
    (_, plain), (snapshot, hedged) = (
        run_download_scenario(
            reference=False, count=20, seed=29, warm=True,
            disturb=disturb, config=config,
        )
        for config in (unhedged, hedging)
    )
    assert all(r[4] is not None for r in snapshot["reports"])  # decoded
    assert plain.hedges_fired == 0 < hedged.hedges_fired
    p99_plain, p99_hedged = (
        float(np.percentile(down.fetch_latencies, 99))
        for down in (plain, hedged)
    )
    assert p99_hedged <= 0.7 * p99_plain
    payload = sum(
        size for path, size, *_ in snapshot["reports"] if path != "/dup"
    )
    assert hedged.hedged_bytes <= 0.1 * payload


def test_armed_idle_hedging_costs_nothing():
    # Fault-free, equal-size segments on skewed links, where the slow
    # clouds' slots sit parked on defer verdicts for most of the batch.
    # A client's controller arms hedging; with nothing ever slow enough
    # to hedge, the batch must pick exactly what it picks with a zero
    # hedge budget, for at most 2 % more kernel steps (no timer per
    # parked slot, no rescan of the fetches in flight per ask).
    runs = []
    for fraction in (UniDriveConfig().hedge_bytes_fraction, 0.0):
        start = {}

        def disturb(sim, conns, estimator):
            start["steps"] = sim.steps

        snapshot, down = run_download_scenario(
            reference=False, down_speeds=SKEWED, count=60, seed=37,
            size=48 * 1024,
            config=UniDriveConfig(theta=CONFIG.theta,
                                  hedge_bytes_fraction=fraction),
            disturb=disturb,
        )
        runs.append((snapshot, down.sim.steps - start["steps"]))
    (armed, armed_steps), (unarmed, unarmed_steps) = runs
    assert armed["hedges"] == (0, 0)
    assert armed["picks"] == unarmed["picks"]
    assert armed == unarmed
    assert armed_steps <= 1.02 * unarmed_steps


def test_hedge_timer_does_not_outlive_its_batch():
    # Every estimate primed at ~12 B/s: each fetch is indexed to become
    # hedge-eligible hours after dispatch, and finishes in milliseconds.
    # The batch withdraws its pending hedge timer when it ends, so
    # draining the queue afterwards does not move the clock there.
    snapshot, down = run_download_scenario(
        reference=False, prime=[1e-4] * N_CLOUDS, count=4, seed=47,
    )
    assert all(r[4] is not None for r in snapshot["reports"])
    assert down.hedges_fired == 0 and down._hedge_timer is None
    finished = snapshot["batch"][1]
    down.sim.run()
    assert down.sim.now < finished + 60.0
