"""The reducer algebra laws and runner-level streaming identity.

Two properties make fleet-scale campaigns safe (``repro.workloads
.reduce`` module docstring):

* **streaming == materialize-then-aggregate** — absorbing items as they
  are produced yields the same state as collecting them in a list first
  and folding afterwards;
* **partition invariance** — folding arbitrary partitions and merging
  the per-partition states in concatenation order equals one fold over
  the whole stream, so worker counts and chunk sizes cannot change what
  ``run_cells`` / ``run_trial`` return.

The Hypothesis suites pin these on synthetic sample streams; the
runner-level tests then pin the same identity end-to-end across worker
counts {1, 2, 8} x chunk sizes {1, 7, 64} and on cohorted trials.
"""

import math
import pickle
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.timeseries import LogHist
from repro.workloads import (
    ApiCounters,
    CountReducer,
    MaterializeReducer,
    ReservoirSample,
    SummaryReducer,
    TrialFleetStats,
    TrialRecord,
    campaign_cell,
    derive_seed,
    run_cells,
    run_trial,
)


@dataclass(frozen=True)
class Item:
    """Minimal stand-in for a probe/transfer sample."""

    cloud_id: str
    direction: str
    size: int
    duration: Optional[float]
    succeeded: bool


items = st.builds(
    Item,
    cloud_id=st.sampled_from(["gdrive", "dropbox", "box"]),
    direction=st.sampled_from(["up", "down"]),
    size=st.sampled_from([1024, 65536, 4 << 20]),
    duration=st.one_of(
        st.none(),
        st.floats(min_value=1e-6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
    ),
    succeeded=st.booleans(),
)

trial_items = st.one_of(
    st.builds(
        TrialRecord,
        user=st.integers(min_value=0, max_value=999),
        location=st.sampled_from(["princeton", "beijing"]),
        t=st.floats(min_value=0.0, max_value=7 * 86400.0,
                    allow_nan=False),
        size=st.sampled_from([1024, 65536, 4 << 20]),
        duration=st.one_of(
            st.none(),
            st.floats(min_value=1e-3, max_value=1e5, allow_nan=False),
        ),
        succeeded=st.booleans(),
    ),
    st.builds(
        ApiCounters,
        requests=st.integers(min_value=0, max_value=500),
        failures=st.integers(min_value=0, max_value=50),
        users=st.integers(min_value=0, max_value=100),
        days=st.floats(min_value=0.0, max_value=7.0, allow_nan=False),
    ),
)

# Each reducer paired with a stream strategy shaped like what the
# harnesses actually feed it.
REDUCERS = [
    (MaterializeReducer, st.lists(items, max_size=200)),
    (CountReducer, st.lists(items, max_size=200)),
    (SummaryReducer, st.lists(items, max_size=200)),
    (TrialFleetStats, st.lists(trial_items, max_size=200)),
]


def _fold(reducer, stream):
    state = reducer.init()
    for item in stream:
        state = reducer.absorb(state, item)
    return state


def _partitions(stream, cuts):
    bounds = sorted({min(c, len(stream)) for c in cuts})
    parts, prev = [], 0
    for bound in bounds:
        parts.append(stream[prev:bound])
        prev = bound
    parts.append(stream[prev:])
    return parts


@pytest.mark.parametrize("make,strategy", REDUCERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_streaming_equals_materialize_then_aggregate(make, strategy, data):
    stream = data.draw(strategy)
    reducer = make()
    streamed = _fold(reducer, stream)
    materialized = list(stream)  # arrival buffer, folded afterwards
    after = _fold(reducer, materialized)
    assert repr(reducer.finalize(streamed)) == \
        repr(reducer.finalize(after))


@pytest.mark.parametrize("make,strategy", REDUCERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_partition_invariance(make, strategy, data):
    stream = data.draw(strategy)
    cuts = data.draw(st.lists(
        st.integers(min_value=0, max_value=200), max_size=5))
    reducer = make()
    whole = reducer.finalize(_fold(reducer, stream))
    merged = reducer.init()
    for part in _partitions(stream, cuts):
        merged = reducer.merge(merged, _fold(reducer, part))
    assert repr(reducer.finalize(merged)) == repr(whole)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False)), max_size=80),
    cut=st.integers(min_value=0, max_value=80))
def test_log_histogram_merge_is_vector_addition(values, cut):
    whole, left, right = LogHist(), LogHist(), LogHist()
    for value in values:
        whole.add(value)
    for value in values[:cut]:
        left.add(value)
    for value in values[cut:]:
        right.add(value)
    left.update(right)
    assert left == whole


def _dense_quantile(values, q):
    """The quantile of the campaign reducers' former private histogram
    (a dense 64-slot list scanned from the bottom), kept as the
    reference for the shared :class:`LogHist`."""
    counts = [0] * 64
    for value in values:
        if value is None or value <= 0.0 or not math.isfinite(value):
            continue
        counts[min(max(int(math.floor(math.log2(value))) + 32, 0), 63)] += 1
    total = sum(counts)
    if total == 0:
        return None
    want = min(max(q, 0.0), 1.0) * total
    seen = 0
    for index, n in enumerate(counts):
        seen += n
        if seen >= want and n:
            return 2.0 ** (index - 32 + 0.5)


@settings(max_examples=30, deadline=None)
@given(stream=st.lists(trial_items, max_size=200),
       cut=st.integers(min_value=0, max_value=200))
def test_fleet_stats_histograms_survive_pickle_and_merge(stream, cut):
    """Cohort states ride back from workers pickled and are merged in
    submission order: the merged histograms must read the quantiles a
    single dense histogram over the whole stream gives."""
    reducer = TrialFleetStats()
    merged = reducer.init()
    for part in (stream[:cut], stream[cut:]):
        state = pickle.loads(pickle.dumps(_fold(reducer, part)))
        merged = reducer.merge(merged, state)
    summary = reducer.finalize(merged)
    assert repr(summary) == repr(reducer.finalize(_fold(reducer, stream)))
    records = [item for item in stream if isinstance(item, TrialRecord)]
    throughputs = [record.throughput_mbps for record in records]
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert summary.throughput_hist.quantile(q) == \
            _dense_quantile(throughputs, q)
    for label, entry in summary.by_bucket.items():
        assert entry["median_mbps"] == _dense_quantile(
            [r.throughput_mbps for r in records if r.bucket == label], 0.5
        )


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=0, max_value=600),
       capacity=st.integers(min_value=1, max_value=16))
def test_reservoir_is_pure_function_of_stream(n, capacity):
    a, b = ReservoirSample(capacity), ReservoirSample(capacity)
    for i in range(n):
        a.add(i)
        b.add(i)
    assert a == b and a.count == n
    assert len(a.kept) == min(n, capacity)


# -- runner-level identity --------------------------------------------------


def _cells():
    return [
        campaign_cell(
            location, sizes=[256 * 1024], interval=1200.0,
            duration_days=0.03, seed=derive_seed(99, location, repeat),
        )
        for location in ("princeton", "beijing")
        for repeat in range(4)
    ]


@pytest.fixture(scope="module")
def reference():
    """Materialized samples and their aggregate, from a serial run."""
    results = run_cells(_cells(), max_workers=1)
    reducer = SummaryReducer()
    state = reducer.init()
    for cell_samples in results:
        for sample in cell_samples:
            state = reducer.absorb(state, sample)
    return results, repr(reducer.finalize(state))


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("chunk_size", [1, 7, 64])
def test_run_cells_invariant_and_streaming_identical(
        workers, chunk_size, reference):
    """Streaming reduction == materialize-then-aggregate, any layout."""
    serial_results, want = reference
    reduced = run_cells(_cells(), max_workers=workers,
                        chunk_size=chunk_size, reducer=SummaryReducer())
    assert repr(reduced) == want
    # And the materialized path itself is layout-invariant.
    results = run_cells(_cells(), max_workers=workers,
                        chunk_size=chunk_size)
    assert repr(results) == repr(serial_results)


def test_cohorted_trial_matches_its_own_layouts():
    """Cohort decomposition is deterministic across pool layouts."""
    kwargs = dict(n_users=24, days=0.5, uploads_per_user=1, seed=5,
                  locations=["princeton"], payload="synthetic",
                  cohort_size=7)
    want = run_trial(reducer=TrialFleetStats(), max_workers=1, **kwargs)
    for workers, chunk in [(2, 1), (2, 2), (3, 64)]:
        got = run_trial(reducer=TrialFleetStats(), max_workers=workers,
                        chunk_size=chunk, **kwargs)
        assert repr(got) == repr(want)
