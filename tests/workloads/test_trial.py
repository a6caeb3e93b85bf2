"""Tests for the synthetic 272-user trial."""

import gc
import tracemalloc

from repro.netsim import bandwidth
from repro.workloads import bucket_of, run_trial


def small_trial(**kwargs):
    defaults = dict(n_users=12, days=1.0, uploads_per_user=3, seed=0)
    defaults.update(kwargs)
    return run_trial(**defaults)


def test_trial_produces_records():
    result = small_trial()
    assert len(result.records) == 12 * 3
    assert result.api_requests > 0
    locations = {r.location for r in result.records}
    assert len(locations) >= 3  # users spread over sites


def test_trial_file_success_exceeds_api_success():
    """The §7.3 headline: rough networks (API success well below 1)
    but multi-cloud retries keep file operations reliable."""
    result = small_trial(n_users=20, uploads_per_user=4, failure_scale=12.0)
    assert result.api_success_rate < 0.97
    assert result.file_success_rate > result.api_success_rate
    assert result.file_success_rate >= 0.9


def test_trial_throughput_filters():
    result = small_trial()
    all_tp = result.throughput_by()
    assert all_tp
    some_location = result.records[0].location
    subset = result.throughput_by(location=some_location)
    assert 0 < len(subset) <= len(all_tp)
    day0 = result.throughput_by(day=0)
    assert len(day0) <= len(all_tp)


def test_trial_records_have_buckets_and_days():
    result = small_trial(days=2.0)
    for record in result.records:
        assert record.bucket == bucket_of(record.size)
        assert 0 <= record.day <= 2
        assert record.size >= 256


def test_trial_deterministic():
    a = small_trial(seed=42)
    b = small_trial(seed=42)
    assert [(r.t, r.duration) for r in a.records] == [
        (r.t, r.duration) for r in b.records
    ]


def test_trial_links_retain_little_bandwidth_state(monkeypatch):
    """A 60-user, 7-day synthetic trial: what its links still hold,
    traced to ``bandwidth.py``, is at most 12 KiB per link a transfer
    read (no per-link shock buffer)."""
    links = []
    init = bandwidth.BandwidthProcess.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        links.append(self)

    monkeypatch.setattr(bandwidth.BandwidthProcess, "__init__", keep)
    tracemalloc.start()
    try:
        run_trial(n_users=60, uploads_per_user=4, seed=3, days=7,
                  payload="synthetic")
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    traced = snapshot.filter_traces(
        [tracemalloc.Filter(True, bandwidth.__file__)])
    retained = sum(stat.size for stat in traced.statistics("filename"))
    read = sum(1 for link in links if link._memo)
    assert read >= 100
    assert retained <= 12 * 1024 * read
