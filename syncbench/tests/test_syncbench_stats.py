"""Nearest-rank order statistics and the ops < 20 rule."""

import pytest

from syncbench import stats


def test_nearest_rank_picks_an_observed_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(values, 0.5) == 3.0
    assert stats.nearest_rank(values, 0.2) == 1.0
    assert stats.nearest_rank(values, 0.21) == 2.0
    assert stats.nearest_rank(values, 1.0) == 5.0
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0  # no mean
    assert stats.nearest_rank([7.0], 0.95) == 7.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0.0)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 1.5)


def test_p95_is_the_maximum_below_twenty_ops():
    nineteen = [float(i) for i in range(1, 20)]
    assert stats.p95(nineteen) == 19.0
    twenty = nineteen + [20.0]
    assert stats.p95(twenty) == 19.0  # ceil(0.95 * 20) = 19th smallest
    hundred = [float(i) for i in range(1, 101)]
    assert stats.p95(hundred) == 95.0


def test_quartile_spread_matches_the_drivers_formula():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (
        (q3 - q1) / statistics.median(values)
    )
    assert stats.quartile_spread([3.0]) == 0.0
