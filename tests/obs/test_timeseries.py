"""Windowed time-series units, and window quantiles property-tested
against a brute-force recompute over the bucketed raw values."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.timeseries import LogHist, TimeSeries

WIDTH = 60.0


# -- units ------------------------------------------------------------------


def test_counters_bucket_by_tumbling_window():
    ts = TimeSeries(width=WIDTH)
    ts.inc("blocks", 5.0, 2.0, cloud="c0")
    ts.inc("blocks", 59.999, 1.0, cloud="c0")
    ts.inc("blocks", 60.0, 4.0, cloud="c0")
    assert ts.window_indices() == [0, 1]
    assert ts.counter_value("blocks", 0, cloud="c0") == 3.0
    assert ts.counter_value("blocks", 1, cloud="c0") == 4.0
    assert ts.counter_value("blocks", 2, cloud="c0") == 0.0


def test_gauge_last_writer_by_observation_time():
    ts = TimeSeries(width=WIDTH)
    ts.gauge("rate", 10.0, 1.0)
    ts.gauge("rate", 30.0, 2.0)
    ts.gauge("rate", 20.0, 9.0)        # older observation: ignored
    ts.gauge("rate", 30.0, 3.0)        # tie: later submission wins
    snap = ts.snapshot()
    assert snap["windows"]["0"]["gauges"]["rate"] == [30.0, 3.0]


def test_ring_evicts_oldest_window():
    ts = TimeSeries(width=WIDTH, ring=2)
    for index in range(3):
        ts.inc("n", index * WIDTH + 1.0)
    assert ts.window_indices() == [1, 2]


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        TimeSeries(width=0.0)
    with pytest.raises(ValueError):
        TimeSeries(ring=0)


def test_snapshot_is_json_safe_and_percentile_reads_back():
    ts = TimeSeries(width=WIDTH)
    for value in (1.0, 2.0, 4.0, 1000.0):
        ts.observe("lat", 10.0, value, device="d0")
    snap = json.loads(json.dumps(ts.snapshot()))
    direct = ts.percentile("lat", 0.5, device="d0")
    assert direct is not None
    stored = snap["windows"]["0"]["histograms"]["lat{device=d0}"]
    assert LogHist.from_json(stored).quantile(0.5) == direct


# -- property: percentiles match brute force --------------------------------

_VALUES = st.lists(
    st.floats(min_value=1e-9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=80,
)


def _brute_quantile(values, q):
    """Order statistic over bucket midpoints, straight from the spec."""
    mids = sorted(
        LogHist.bucket_value(LogHist.bucket_index(v)) for v in values
    )
    want = min(max(q, 0.0), 1.0) * len(values)
    return mids[max(0, math.ceil(want) - 1)]


@settings(max_examples=150, deadline=None)
@given(values=_VALUES, q=st.floats(min_value=0.0, max_value=1.0))
def test_loghist_quantile_matches_bruteforce(values, q):
    hist = LogHist()
    for value in values:
        hist.add(value)
    assert hist.quantile(q) == _brute_quantile(values, q)


@settings(max_examples=80, deadline=None)
@given(
    obs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=600.0,
                      allow_nan=False, allow_infinity=False),
            st.floats(min_value=1e-6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=60,
    ),
    q=st.sampled_from([0.5, 0.95, 0.99]),
)
def test_window_percentile_matches_bruteforce(obs, q):
    ts = TimeSeries(width=WIDTH)
    for t, value in obs:
        ts.observe("lat", t, value)
    for window in ts.window_indices():
        raw = [v for t, v in obs if math.floor(t / WIDTH) == window]
        assert ts.percentile("lat", q, window=window) == \
            _brute_quantile(raw, q)
    # Pooled across windows equals brute force over everything.
    assert ts.percentile("lat", q) == _brute_quantile(
        [v for _, v in obs], q
    )


def test_quantile_ignores_null_observations():
    hist = LogHist()
    hist.add(4.0)
    for bad in (None, 0.0, -1.0, float("nan"), float("inf")):
        hist.add(bad)
    assert hist.nulls == 5
    assert hist.total == 1
    assert hist.quantile(0.5) == LogHist.bucket_value(
        LogHist.bucket_index(4.0)
    )
