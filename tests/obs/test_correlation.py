"""Cross-device trace correlation: one sync is one causally-linked tree.

Every span below a ``sync_round`` carries the root's ``trace_id`` and a
``parent`` span id, down through scheduler transfers, lock acquisition,
and the netsim flows — and the Chrome exporter renders the links as
flow arrows plus counter tracks for the telemetry windows.
"""

import json

import numpy as np

from repro import obs
from repro.core.config import UniDriveConfig
from repro.obs.export import chrome_trace
from repro.workloads import make_fleet

CONFIG = UniDriveConfig(theta=64 * 1024, lock_backoff_max=1.0)


def _traced_sync_pair():
    """One writer-then-reader sync under tracing + telemetry; returns
    ``(records, windows_snapshot)``."""
    sim, _, (writer, reader) = make_fleet(2, config=CONFIG)
    rng = np.random.default_rng(7)
    with obs.isolated(sim=sim, telemetry=True) as (tracer, _):
        for i in range(2):
            writer.fs.write_file(f"/f{i}.bin", rng.bytes(96 * 1024),
                                 mtime=sim.now)
        sim.run_process(writer.sync())
        sim.run_process(reader.sync())
        windows = obs.get_telemetry().timeseries.snapshot()
        records = tracer.drain()
    return records, windows


def _span_index(records):
    return {
        r.attrs["sid"]: r
        for r in records
        if r.kind == "span" and "sid" in r.attrs
    }


def _chain(span, spans):
    """Names from ``span`` up to its root, following ``parent`` sids."""
    names = [span.name]
    seen = set()
    while "parent" in span.attrs and span.attrs["parent"] in spans:
        assert span.attrs["sid"] not in seen, "parent cycle"
        seen.add(span.attrs["sid"])
        parent = spans[span.attrs["parent"]]
        if parent is span:
            break
        span = parent
        names.append(span.name)
    return names


def test_every_instrumented_span_roots_at_a_sync_round():
    records, _ = _traced_sync_pair()
    spans = _span_index(records)
    assert spans, "no correlated spans recorded"
    chains = set()
    for span in spans.values():
        names = _chain(span, spans)
        root = spans[span.attrs["trace_id"]]
        # The chain terminates at the span whose sid IS the trace id.
        # Data-plane work roots at a sync_round; control-plane traffic
        # (folder listings, deletes) is deliberately self-rooted at its
        # own bare netsim flow and must never masquerade as anything
        # else.
        assert names[-1] == root.name
        assert root.name in ("sync_round", "flow_up", "flow_down")
        # Every hop shares the root's trace id.
        hop = span
        while "parent" in hop.attrs and hop.attrs["parent"] in spans:
            assert hop.attrs["trace_id"] == span.attrs["trace_id"]
            if hop.attrs["parent"] == hop.attrs["sid"]:
                break
            hop = spans[hop.attrs["parent"]]
        chains.add(tuple(names))
    # The full causal depth exists on both directions of the sync.
    assert ("flow_up", "transfer", "upload_batch", "sync_round") in chains
    assert ("flow_down", "transfer", "download_batch",
            "sync_round") in chains
    # Self-rooted trees are single bare flows — control-plane traffic
    # never grows data-plane structure.
    for names in chains:
        if names[-1] != "sync_round":
            assert len(names) == 1


def test_lock_acquisition_joins_the_sync_trace():
    records, _ = _traced_sync_pair()
    spans = _span_index(records)
    locks = [r for r in records
             if r.kind == "span" and r.name == "lock_acquire"]
    assert locks
    for lock in locks:
        assert "trace_id" in lock.attrs and "parent" in lock.attrs
        root = spans[lock.attrs["trace_id"]]
        assert root.name == "sync_round"


def test_trace_ids_separate_the_two_devices():
    records, _ = _traced_sync_pair()
    roots = [r for r in records
             if r.kind == "span" and r.name == "sync_round"]
    assert len(roots) == 2
    assert roots[0].attrs["trace_id"] != roots[1].attrs["trace_id"]
    by_track = {r.track: r.attrs["trace_id"] for r in roots}
    assert set(by_track) == {"device0", "device1"}


def test_chrome_export_renders_flow_arrows_and_counter_tracks():
    records, windows = _traced_sync_pair()
    doc = chrome_trace(records, windows=windows)
    json.dumps(doc)  # must stay JSON-safe
    events = doc["traceEvents"]

    starts = [e for e in events if e.get("ph") == "s"]
    finishes = [e for e in events if e.get("ph") == "f"]
    assert starts and finishes
    # Arrows pair up by flow id, start strictly before (or at) finish.
    by_id = {e["id"]: e for e in starts}
    for finish in finishes:
        start = by_id[finish["id"]]
        assert start["ts"] <= finish["ts"]

    counters = [e for e in events if e.get("ph") == "C"]
    assert counters, "telemetry windows produced no counter tracks"
    names = {e["name"] for e in counters}
    assert any(name.startswith("window_bytes") for name in names)


def test_export_without_windows_still_works():
    records, _ = _traced_sync_pair()
    events = chrome_trace(records)["traceEvents"]
    assert not [e for e in events if e.get("ph") == "C"
                and e.get("pid") == "telemetry"]
    assert [e for e in events if e.get("ph") == "s"]
