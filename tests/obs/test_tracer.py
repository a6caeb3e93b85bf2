"""Tracer unit tests: span nesting/ordering under the event kernel and
the disabled-mode no-op contract."""

import pickle

from repro import obs
from repro.obs import OBS, EventRecord, SpanRecord, Tracer
from repro.simkernel import Simulator


def test_begin_end_with_explicit_times():
    tracer = Tracer()
    span = tracer.begin("upload", t=3.0, track="gdrive", bytes=100)
    tracer.end(span, t=7.5, ok=True)
    assert span.t0 == 3.0 and span.t1 == 7.5
    assert span.duration == 4.5
    assert span.attrs == {"bytes": 100, "ok": True}
    assert tracer.records == [span]


def test_finish_is_idempotent_but_merges_attrs():
    span = SpanRecord("s", "t", 0.0, {})
    span.finish(2.0, a=1)
    span.finish(9.0, b=2)
    assert span.t1 == 2.0  # first close wins
    assert span.attrs == {"a": 1, "b": 2}


def test_span_nesting_under_event_kernel():
    sim = Simulator()
    with obs.isolated(sim=sim) as (tracer, _metrics):

        def worker():
            outer, _ = OBS.begin("outer", t=sim.now, track="w")
            yield sim.timeout(5.0)
            inner, _ = OBS.begin("inner", t=sim.now, track="w")
            yield sim.timeout(2.0)
            OBS.end(inner, t=sim.now)
            yield sim.timeout(1.0)
            OBS.end(outer, t=sim.now)

        sim.run_process(worker())
        records = tracer.drain()

    assert [r.name for r in records] == ["outer", "inner"]
    outer, inner = records
    assert (outer.t0, outer.t1) == (0.0, 8.0)
    assert (inner.t0, inner.t1) == (5.0, 7.0)
    # Nesting holds on the virtual timeline.
    assert outer.t0 <= inner.t0 and inner.t1 <= outer.t1


def test_buffer_order_is_begin_order_across_processes():
    sim = Simulator()
    with obs.isolated(sim=sim) as (tracer, _metrics):

        def worker(name, delay, hold):
            yield sim.timeout(delay)
            span, _ = OBS.begin("work", t=sim.now, track=name)
            yield sim.timeout(hold)
            OBS.end(span, t=sim.now)

        # b begins before a (t=1 vs t=2) despite being spawned second.
        sim.process(worker("a", 2.0, 10.0))
        sim.process(worker("b", 1.0, 1.0))
        sim.run()
        records = tracer.drain()

    assert [(r.track, r.t0) for r in records] == [("b", 1.0), ("a", 2.0)]


def test_event_records_point_in_time():
    sim = Simulator()
    with obs.isolated(sim=sim) as (tracer, _metrics):

        def worker():
            yield sim.timeout(4.0)
            OBS.event("fault", t=sim.now, track="gdrive", kind="outage-begin")

        sim.run_process(worker())
        (event,) = tracer.drain()
    assert isinstance(event, EventRecord)
    assert event.t == 4.0
    assert event.attrs == {"kind": "outage-begin"}


def test_disabled_hub_is_noop():
    obs.disable()
    assert not OBS.enabled
    span, ctx = OBS.begin("x", t=0.0, ctx=None)
    assert span is None and ctx is None
    OBS.end(span, t=1.0)  # must not raise
    OBS.event("x", t=0.0)


def test_begin_links_spans_into_one_trace():
    with obs.isolated() as (tracer, _metrics):
        plain, no_ctx = OBS.begin("plain", t=0.0, size=1)
        root, root_ctx = OBS.begin("root", t=0.0, ctx=None)
        child, child_ctx = OBS.begin("child", t=1.0, ctx=root_ctx, size=2)
    # An unlinked span takes no id; linked ones carry sid + ancestry
    # after their own attrs.
    assert no_ctx is None and plain.attrs == {"size": 1}
    assert root.attrs == {"sid": 1, "trace_id": 1}
    assert root_ctx == (1, 1)
    assert list(child.attrs.items()) == [
        ("size", 2), ("sid", 2), ("trace_id", 1), ("parent", 1),
    ]
    assert child_ctx == (1, 2)
    assert tracer.records == [plain, root, child]


def test_metrics_only_sink_allocates_no_span():
    """With only a counters registry installed the one guard is up, but
    a traced site gets no span, no id and no record."""
    obs.disable()
    with obs.isolated(tracer=False) as (tracer, metrics):
        assert tracer is None and OBS.enabled
        assert OBS.begin("x", t=0.0) == (None, None)
        assert OBS.begin("x", t=0.0, ctx=None) == (None, None)
        OBS.event("x", t=0.0)
        # A fan-out fact still reaches the sink that is there.
        OBS.lock_break("cloud0", 1.0, victim="lock_a", breaker="b")
        assert metrics.counter_value("lock_breaks", cloud="cloud0") == 1
    assert not OBS.enabled


def test_isolated_restores_previous_state():
    obs.disable()
    with obs.isolated() as (tracer, metrics):
        assert OBS.enabled
        assert obs.get_tracer() is tracer
        assert obs.get_metrics() is metrics
        with obs.isolated() as (nested, _):
            assert obs.get_tracer() is nested
        assert obs.get_tracer() is tracer
    assert not OBS.enabled
    assert obs.get_tracer() is None


def test_isolated_selects_sinks_and_restores_on_error():
    obs.disable()
    with obs.isolated() as (tracer, metrics):
        # Counters only: the surrounding tracer stays, metrics are fresh.
        with obs.isolated(tracer=False) as (same_tracer, fresh):
            assert same_tracer is tracer and fresh is not metrics
        # Telemetry only: both surrounding sinks stay.
        try:
            with obs.isolated(telemetry=True, tracer=False, metrics=False):
                assert obs.get_tracer() is tracer
                assert obs.get_metrics() is metrics
                assert obs.get_telemetry() is not None
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert obs.get_telemetry() is None
        assert obs.get_metrics() is metrics
    assert not OBS.enabled


def test_drain_detaches_buffer():
    tracer = Tracer()
    tracer.event("e", t=0.0)
    first = tracer.drain()
    assert len(first) == 1
    assert tracer.records == []
    assert tracer.drain() == []


def test_records_pickle_roundtrip():
    span = SpanRecord("transfer", "gdrive", 1.0, {"bytes": 42})
    span.finish(2.0)
    event = EventRecord("fault", "gdrive", 1.5, {"kind": "outage-begin"})
    for record in (span, event):
        clone = pickle.loads(pickle.dumps(record))
        assert clone.to_json() == record.to_json()


def test_configure_binds_sim_clock():
    sim = Simulator()
    tracer, _ = obs.configure(sim=sim)
    try:
        def worker():
            yield sim.timeout(3.0)
            OBS.event("tick")  # no explicit t: tracer clock used

        sim.run_process(worker())
        (event,) = tracer.drain()
        assert event.t == 3.0
    finally:
        obs.disable()
