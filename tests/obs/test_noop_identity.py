"""The overhead contract's behavioural half: tracing and telemetry must
never perturb simulation results (enabled, disabled, or absent), and
the parallel runner's merged trace must be deterministic across worker
counts."""

from dataclasses import fields

import numpy as np
import pytest

from repro import obs
from repro.core.config import UniDriveConfig
from repro.workloads import make_fleet, run_cells, transfers_cell
from repro.workloads.shared import SharedScenario, run_shared

CONFIG = UniDriveConfig(theta=64 * 1024, lock_backoff_max=1.0)


def _sync_digest():
    """One writer-then-reader sync pair; returns a repr of every
    externally-visible outcome."""
    sim, _, (writer, reader) = make_fleet(2, config=CONFIG)
    rng = np.random.default_rng(7)
    for i in range(3):
        writer.fs.write_file(f"/f{i}.bin", rng.bytes(96 * 1024), mtime=sim.now)
    up = sim.run_process(writer.sync())
    down = sim.run_process(reader.sync())
    files = sorted(
        (path, reader.fs.read_file(path)) for path in ("/f0.bin", "/f1.bin",
                                                       "/f2.bin")
    )
    return repr((up, down, sim.now, files))


def test_sync_identical_enabled_vs_disabled():
    obs.disable()
    before = _sync_digest()
    with obs.isolated() as (tracer, metrics):
        traced = _sync_digest()
        # The traced run actually recorded something...
        assert len(tracer.records) > 0
        assert metrics.counter_value("bytes_up", cloud="cloud0") > 0
    after = _sync_digest()
    # ...without changing a single simulated outcome.
    assert before == traced == after


@pytest.mark.parametrize(
    "policy", ["retain-both", "last-writer-wins", "per-path"],
)
def test_degrade_arc_identical_with_and_without_telemetry(policy):
    """The degradation plane decides from its own requests only: the
    ``--degrade`` campaign's arc (cloud 1 slowed 200x, cloud 2 down,
    both recovering before a repaying scrub) yields the same commits,
    hedges, debt and breaker history whether or not a telemetry
    pipeline is recording the outage."""
    obs.disable()
    scenario = SharedScenario(
        writers=4, rounds=8, seed=7, policy=policy,
        slow=((1, 48.0, 288.0, 200.0),), outages=((2, 96.0, 336.0),),
        scrub_after=True,
    )
    plain = run_shared(scenario)
    recorded = run_shared(scenario, telemetry=True)
    assert plain.telemetry is None and recorded.telemetry is not None
    assert plain.breaker_transitions["c2"] > 0  # the outage is felt
    names = [f.name for f in fields(plain) if f.name != "telemetry"]
    assert ({n: getattr(recorded, n) for n in names}
            == {n: getattr(plain, n) for n in names})


def _cells():
    return [
        transfers_cell("princeton", ["gdrive", "unidrive"], 512 * 1024,
                       repeats=1, seed=3),
        transfers_cell("tokyo_pl", ["gdrive", "unidrive"], 512 * 1024,
                       repeats=1, seed=5),
    ]


def _portable(records):
    """Stable cross-process record form, with host-dependent wall-clock
    attributes (encode spans carry ``wall_ms``) stripped."""
    rows = []
    for record in records:
        row = record.to_json()
        row["attrs"].pop("wall_ms", None)
        rows.append(row)
    return rows


def test_collect_traces_does_not_change_results():
    obs.disable()
    plain = run_cells(_cells(), max_workers=1)
    traced, records, metrics = run_cells(
        _cells(), max_workers=1, collect_traces=True
    )
    assert repr(plain) == repr(traced)
    assert records and metrics["counters"]


def test_parallel_trace_merge_matches_serial():
    obs.disable()
    serial_results, serial_records, serial_metrics = run_cells(
        _cells(), max_workers=1, collect_traces=True
    )
    parallel_results, parallel_records, parallel_metrics = run_cells(
        _cells(), max_workers=2, collect_traces=True
    )
    assert repr(serial_results) == repr(parallel_results)
    assert _portable(serial_records) == _portable(parallel_records)
    assert serial_metrics == parallel_metrics
    # Cell boundary markers appear in submission order.
    markers = [
        r.attrs["index"] for r in serial_records
        if r.kind == "event" and r.name == "cell"
    ]
    assert markers == [0, 1]


def test_empty_cells_with_traces():
    assert run_cells([], collect_traces=True) == ([], [], None)
