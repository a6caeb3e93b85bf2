"""Tests for the bandwidth process models."""

import numpy as np
import pytest

from repro.netsim import BandwidthProcess, ConstantBandwidth, MBPS


def make(seed=0, **kwargs):
    defaults = dict(mean_rate=10 * MBPS, epoch=60.0)
    defaults.update(kwargs)
    return BandwidthProcess(np.random.default_rng(seed), **defaults)


def test_parameter_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        BandwidthProcess(rng, mean_rate=0)
    with pytest.raises(ValueError):
        BandwidthProcess(rng, mean_rate=1, ar_coefficient=1.0)
    with pytest.raises(ValueError):
        BandwidthProcess(rng, mean_rate=1, epoch=0)
    with pytest.raises(ValueError):
        BandwidthProcess(rng, mean_rate=1, diurnal_amplitude=1.5)
    with pytest.raises(ValueError):
        ConstantBandwidth(0)


@pytest.mark.parametrize("volatility", [-0.1, float("nan")])
def test_negative_volatility_rejected(volatility):
    with pytest.raises(ValueError, match="volatility"):
        make(volatility=volatility)


@pytest.mark.parametrize("probability", [-0.01, 1.01, float("nan")])
def test_fade_probability_outside_unit_interval_rejected(probability):
    with pytest.raises(ValueError, match="fade_probability"):
        make(fade_probability=probability)


@pytest.mark.parametrize("depth", [0.5, 1.0, 1.99, float("nan")])
def test_fade_depth_below_two_rejected(depth):
    # A fade divides the rate by a depth drawn from [2, fade_depth); a
    # depth below 1 would make a "fade" raise the rate.
    with pytest.raises(ValueError, match="fade_depth"):
        make(fade_depth=depth)


def test_fade_parameter_edges_accepted():
    process = make(volatility=0.0, fade_probability=1.0, fade_depth=2.0)
    # Every epoch fades, by exactly 2, around a flat series.
    assert process.rate_at(30.0) == pytest.approx(5 * MBPS, rel=1e-12)
    assert make(fade_probability=0.0).rate_at(30.0) > 0


def test_generator_must_be_pcg64():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError):
        BandwidthProcess(rng, mean_rate=1)


def test_rate_is_positive():
    process = make()
    for t in np.linspace(0, 86400, 200):
        assert process.rate_at(float(t)) > 0


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        make().rate_at(-1)


def test_piecewise_constant_within_epoch():
    process = make(diurnal_amplitude=0.0)
    assert process.rate_at(10.0) == process.rate_at(59.9)
    # Next-change boundary is the epoch edge.
    assert process.next_change_after(10.0) == 60.0
    assert process.next_change_after(60.0) == 120.0


def test_deterministic_given_seed():
    a = make(seed=42)
    b = make(seed=42)
    for t in (0.0, 100.0, 5000.0, 90000.0):
        assert a.rate_at(t) == b.rate_at(t)


def test_different_seeds_differ():
    a = make(seed=1)
    b = make(seed=2)
    rates_a = [a.rate_at(t) for t in np.arange(0, 6000, 60.0)]
    rates_b = [b.rate_at(t) for t in np.arange(0, 6000, 60.0)]
    assert rates_a != rates_b


def test_mean_rate_approximately_preserved():
    process = make(seed=3, volatility=0.5, fade_probability=0.0,
                   diurnal_amplitude=0.0)
    times = np.arange(0, 60.0 * 5000, 60.0)
    rates = np.array([process.rate_at(float(t)) for t in times])
    assert 0.8 * 10 * MBPS < rates.mean() < 1.2 * 10 * MBPS


def test_high_volatility_yields_large_daily_swing():
    """The paper saw 17x max/min within a day; fades + AR(1) produce
    double-digit swing ratios."""
    process = make(seed=4, volatility=0.6, fade_probability=0.05)
    day = np.array([process.rate_at(float(t)) for t in np.arange(0, 86400, 60)])
    assert day.max() / day.min() > 5


def test_out_of_order_queries_consistent():
    process = make(seed=5)
    late = process.rate_at(5000.0)
    early = process.rate_at(100.0)
    assert process.rate_at(5000.0) == late
    assert process.rate_at(100.0) == early


def test_constant_bandwidth():
    process = ConstantBandwidth(123.0)
    assert process.rate_at(0) == 123.0
    assert process.rate_at(1e9) == 123.0
    assert process.next_change_after(0) == float("inf")
