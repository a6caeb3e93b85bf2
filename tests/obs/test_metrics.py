"""Metrics registry tests: labelled series, histograms, snapshot
determinism, and cross-process snapshot merging."""

import pytest

from repro import obs
from repro.obs import OBS, Metrics, merge_snapshots
from repro.obs.timeseries import LogHist


def test_counter_labels_are_order_insensitive():
    m = Metrics()
    m.inc("bytes_up", 100, cloud="gdrive", dir="up")
    m.inc("bytes_up", 50, dir="up", cloud="gdrive")
    assert m.counter_value("bytes_up", cloud="gdrive", dir="up") == 150
    assert m.counter_value("bytes_up", cloud="other") == 0.0


def test_snapshot_renders_prometheus_style_keys_sorted():
    m = Metrics()
    m.inc("bytes_up", 1, cloud="onedrive")
    m.inc("bytes_up", 1, cloud="gdrive")
    m.inc("alpha_total")
    m.gauge("queue_depth", 3, cloud="gdrive")
    snap = m.snapshot()
    assert list(snap["counters"]) == [
        "alpha_total", "bytes_up{cloud=gdrive}", "bytes_up{cloud=onedrive}",
    ]
    assert snap["gauges"] == {"queue_depth{cloud=gdrive}": 3}


def test_histogram_series_is_a_loghist():
    m = Metrics()
    expected = LogHist()
    for value in (0.5, 5.0, 99.0, 0.0):
        m.observe("lat", value)
        expected.add(value)
    hist = m.snapshot()["histograms"]["lat"]
    assert hist == expected.to_json()
    assert hist["count"] == 3 and hist["nulls"] == 1  # 0.0 is a null
    assert hist["sum"] == pytest.approx(104.5)
    assert LogHist.from_json(hist).quantile(0.5) == LogHist.bucket_value(
        LogHist.bucket_index(5.0)
    )


def test_merge_snapshots_sums_counters_and_histograms():
    a = Metrics()
    a.inc("n", 2, cloud="c1")
    a.gauge("g", 1.0)
    a.observe("h", 0.5)
    b = Metrics()
    b.inc("n", 3, cloud="c1")
    b.inc("n", 7, cloud="c2")
    b.gauge("g", 2.0)
    b.observe("h", 0.7)

    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"] == {"n{cloud=c1}": 5, "n{cloud=c2}": 7}
    # Gauges: last writer (submission order) wins.
    assert merged["gauges"] == {"g": 2.0}
    assert merged["histograms"]["h"]["count"] == 2
    assert merged["histograms"]["h"]["sum"] == pytest.approx(1.2)


def test_merge_snapshots_equals_one_registry():
    """Histograms of any range add: merging two registries' snapshots
    equals one registry that observed every value."""
    values = (2.0 ** -20, 0.5, 3.0, 0.0, 2e4, 7.0)  # sums exact in floats
    a, b, whole = Metrics(), Metrics(), Metrics()
    for i, value in enumerate(values):
        (a if i % 2 else b).observe("h", value, cloud="c1")
        whole.observe("h", value, cloud="c1")
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["histograms"] == whole.snapshot()["histograms"]


def test_disabled_hub_drops_everything():
    obs.disable()
    assert not OBS.enabled
    OBS.inc("n")
    OBS.observe("h", 0.5)
    assert obs.get_metrics() is None


def test_isolated_hub_collects_then_restores():
    obs.disable()
    with obs.isolated() as (_tracer, metrics):
        OBS.inc("n", 4)
        assert metrics.counter_value("n") == 4
    assert not OBS.enabled
