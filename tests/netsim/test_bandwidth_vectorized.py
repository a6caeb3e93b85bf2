"""The vectorized chunk sampler is pinned to a per-epoch reference.

:class:`BandwidthProcess` generates epoch multipliers with bulk numpy
draws plus a doubling AR(1) scan; :class:`_ScalarReference` below
consumes the *same* bulk draws but runs the recursion and the exp/fade
arithmetic one epoch at a time in Python.  Over any parameters, any
seed and any chunk size the two must agree epoch for epoch — up to the
few-ulp difference between the scan and the sequential recursion (and
between ``np.exp`` and ``math.exp``), so 1e-12 relative tolerance at
zero absolute tolerance is a tight pin.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import BandwidthProcess, MBPS
from repro.netsim.bandwidth import CHUNK_EPOCHS, _ar1_scan

EPOCH = 60.0


class _ScalarReference(BandwidthProcess):
    """The per-epoch sampler: one Python-loop epoch at a time."""

    def _chunk_multipliers(self, innovations, fade_coins, fade_depths):
        multipliers = np.empty(len(innovations), dtype=np.float64)
        x = self._x_state
        offset = self.volatility**2 / 2
        for i in range(len(innovations)):
            if self._count == 0 and i == 0:
                x = self.volatility * float(innovations[0])
            else:
                x = self.ar * x + self._innovation_scale * float(
                    innovations[i]
                )
            multiplier = math.exp(x - offset)
            if float(fade_coins[i]) < self.fade_probability:
                multiplier /= float(fade_depths[i])
            multipliers[i] = multiplier
        return multipliers, x


def make_pair(seed, **params):
    params.setdefault("mean_rate", 10 * MBPS)
    params.setdefault("epoch", EPOCH)
    vectorized = BandwidthProcess(np.random.default_rng(seed), **params)
    scalar = _ScalarReference(np.random.default_rng(seed), **params)
    return vectorized, scalar


@given(
    seed=st.integers(0, 2**31 - 1),
    volatility=st.floats(0.05, 1.5),
    ar=st.floats(0.0, 0.99),
    fade_probability=st.floats(0.0, 0.3),
    fade_depth=st.floats(2.5, 16.0),
    diurnal=st.floats(0.0, 0.9),
    chunk=st.integers(3, 64),
)
@settings(max_examples=60, deadline=None)
def test_vectorized_matches_scalar_reference(
    seed, volatility, ar, fade_probability, fade_depth, diurnal, chunk
):
    vectorized, scalar = make_pair(
        seed,
        volatility=volatility,
        ar_coefficient=ar,
        fade_probability=fade_probability,
        fade_depth=fade_depth,
        diurnal_amplitude=diurnal,
        chunk_epochs=chunk,
    )
    # Span several chunks, sampling off-boundary instants so the
    # diurnal modulation path is exercised too.
    times = EPOCH * (np.arange(4 * chunk + 7) + 0.25)
    got = np.array([vectorized.rate_at(t) for t in times])
    want = np.array([scalar.rate_at(t) for t in times])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert vectorized.next_change_after(times[3]) == scalar.next_change_after(
        times[3]
    )


@given(seed=st.integers(0, 2**31 - 1), chunk=st.integers(2, 32))
@settings(max_examples=30, deadline=None)
def test_query_order_does_not_change_realization(seed, chunk):
    """Jumping far ahead then back reads the same cached multipliers
    a strictly sequential scan produces."""
    kwargs = dict(mean_rate=10 * MBPS, epoch=EPOCH, chunk_epochs=chunk)
    random_order = BandwidthProcess(np.random.default_rng(seed), **kwargs)
    sequential = BandwidthProcess(np.random.default_rng(seed), **kwargs)
    horizon = 3 * chunk + 5
    late = EPOCH * (horizon - 0.5)
    jumped_first = random_order.rate_at(late)
    forward = [sequential.rate_at(EPOCH * (i + 0.5)) for i in range(horizon)]
    assert jumped_first == forward[-1]
    backward = [
        random_order.rate_at(EPOCH * (i + 0.5)) for i in range(horizon)
    ]
    assert backward == forward


def test_rate_queries_are_cached_not_redrawn():
    """Repeated queries of one epoch return the same rate and draw no
    further rng state (the realization is materialized once)."""
    process, _ = make_pair(7)
    first = process.rate_at(123.0)
    state = process._rng.bit_generator.state["state"]["state"]
    assert process.rate_at(123.0) == first
    assert process.rate_at(45.0) > 0
    assert process._rng.bit_generator.state["state"]["state"] == state


def test_default_chunk_meets_bulk_draw_bar():
    assert CHUNK_EPOCHS >= 4096
    process, _ = make_pair(3)
    assert process.chunk_epochs == CHUNK_EPOCHS


def test_floor_and_positivity_preserved():
    process, scalar = make_pair(11, fade_probability=0.5, fade_depth=16.0)
    for i in range(200):
        rate = process.rate_at(i * EPOCH)
        assert rate >= process.mean_rate * 1e-3
        assert rate == pytest.approx(scalar.rate_at(i * EPOCH), rel=1e-12)


@given(
    seed=st.integers(0, 2**31 - 1),
    ar=st.floats(0.0, 0.99),
    n=st.integers(1, 5000),
    x0=st.floats(-10.0, 10.0),
    scale=st.floats(1e-3, 1e3),
)
@settings(max_examples=60, deadline=None)
def test_ar1_scan_within_bound_of_sequential_recursion(seed, ar, n, x0, scale):
    shocks = scale * np.random.default_rng(seed).standard_normal(n)
    want = np.empty(n)
    x = x0
    for i, shock in enumerate(shocks.tolist()):
        x = ar * x + shock
        want[i] = x
    got = _ar1_scan(ar, shocks.copy(), x0)
    eps = np.finfo(np.float64).eps
    magnitude = max(np.abs(shocks).max(), abs(x0))
    assert np.all(np.abs(got - want) <= 64 * eps * magnitude / (1 - ar))


@given(ar=st.floats(0.0, 0.99), n=st.integers(1, 5000))
@settings(max_examples=30, deadline=None)
def test_ar1_scan_of_zero_shocks_is_exactly_zero(ar, n):
    got = _ar1_scan(ar, np.zeros(n), 0.0)
    assert not got.any()
