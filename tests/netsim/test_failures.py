"""Tests for the stress process and failure model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    FailureModel,
    StressProcess,
    interval_failure_indicators,
)

CLOUDS = ["dropbox", "onedrive", "gdrive"]


def make_stress(seed=0, **kwargs):
    return StressProcess(np.random.default_rng(seed), CLOUDS, **kwargs)


def test_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        StressProcess(rng, [])
    with pytest.raises(ValueError):
        StressProcess(rng, CLOUDS, mean_calm=0)
    with pytest.raises(ValueError):
        StressProcess(rng, CLOUDS, weights=[1.0])
    with pytest.raises(ValueError):
        FailureModel(rng, "c", base_rate=1.5)


def test_at_most_one_cloud_stressed():
    stress = make_stress(seed=1, mean_calm=600, mean_stress=300)
    for t in np.arange(0, 7 * 86400, 500.0):
        stressed = stress.stressed_cloud_at(float(t))
        assert stressed is None or stressed in CLOUDS


def test_stress_deterministic():
    a = make_stress(seed=2)
    b = make_stress(seed=2)
    times = np.arange(0, 86400, 100.0)
    assert [a.stressed_cloud_at(float(t)) for t in times] == [
        b.stressed_cloud_at(float(t)) for t in times
    ]


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        make_stress().stressed_cloud_at(-5)


def test_every_cloud_eventually_stressed():
    stress = make_stress(seed=3, mean_calm=600, mean_stress=300)
    seen = set()
    for t in np.arange(0, 30 * 86400, 200.0):
        stressed = stress.stressed_cloud_at(float(t))
        if stressed:
            seen.add(stressed)
    assert seen == set(CLOUDS)


def test_stress_indicators_negatively_correlated():
    """The designed Table 1 property: pairwise negative correlation."""
    stress = make_stress(seed=4, mean_calm=2000, mean_stress=1500)
    series = interval_failure_indicators(stress, CLOUDS, 600.0, 4000)
    matrix = np.corrcoef([series[c] for c in CLOUDS])
    for i in range(len(CLOUDS)):
        for j in range(len(CLOUDS)):
            if i != j:
                assert matrix[i, j] < 0


def test_failure_probability_increases_with_size():
    model = FailureModel(np.random.default_rng(0), "c", base_rate=0.02)
    mb = 1024 * 1024
    small = model.failure_probability(0.0, 1 * mb)
    knee = model.failure_probability(0.0, 2 * mb)
    large = model.failure_probability(0.0, 8 * mb)
    assert small == knee == 0.02  # no size effect below the knee
    assert large > knee


def test_failure_probability_capped():
    model = FailureModel(np.random.default_rng(0), "c", base_rate=0.5)
    huge = model.failure_probability(0.0, 10**10)
    assert huge == FailureModel.MAX_PROBABILITY


def test_stress_multiplies_failure_rate():
    stress = make_stress(seed=5, mean_calm=100, mean_stress=1e9)
    # After the first calm period, "some" cloud is stressed forever.
    stressed_cloud = None
    t = 0.0
    while stressed_cloud is None:
        t += 50.0
        stressed_cloud = stress.stressed_cloud_at(t)
    model = FailureModel(
        np.random.default_rng(1), stressed_cloud, base_rate=0.01, stress=stress
    )
    assert model.failure_probability(t, 1024) == pytest.approx(
        0.01 * FailureModel.STRESS_FACTOR
    )
    other = FailureModel(
        np.random.default_rng(2), "someone-else", base_rate=0.01, stress=stress
    )
    assert other.failure_probability(t, 1024) == pytest.approx(0.01)


def test_should_fail_statistics():
    model = FailureModel(np.random.default_rng(6), "c", base_rate=0.1)
    outcomes = [model.should_fail(0.0, 1024) for _ in range(5000)]
    rate = sum(outcomes) / len(outcomes)
    assert 0.08 < rate < 0.12


def test_weighted_stress_prefers_heavy_cloud():
    stress = StressProcess(
        np.random.default_rng(7),
        CLOUDS,
        mean_calm=500,
        mean_stress=500,
        weights=[10.0, 1.0, 1.0],
    )
    counts = {c: 0 for c in CLOUDS}
    for t in np.arange(0, 60 * 86400, 250.0):
        stressed = stress.stressed_cloud_at(float(t))
        if stressed:
            counts[stressed] += 1
    assert counts["dropbox"] > counts["onedrive"]
    assert counts["dropbox"] > counts["gdrive"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(
    st.floats(0, 40 * 86400, allow_nan=False), min_size=1, max_size=30))
def test_lookup_matches_searchsorted(seed, offsets):
    """bisect_right on the timeline list returns the index
    ``np.searchsorted(..., side="right")`` did, at interval starts
    themselves and past the horizon (which extends the timeline)."""
    stress = make_stress(seed=seed, mean_calm=600, mean_stress=300)
    stress.stressed_cloud_at(max(offsets))
    times = list(offsets) + list(stress._starts)
    times.append(stress._horizon + 5000.0)
    for t in times:
        got = stress.stressed_cloud_at(t)
        index = int(np.searchsorted(stress._starts, t, side="right")) - 1
        assert got == stress._states[index]
