"""The lazily-evaluated sampler is pinned to a bulk-draw reference.

:class:`_Reference` below is the sampler as it used to be: each chunk
draws its normal innovations, fade coins and fade depths as three bulk
arrays, then runs the AR(1) recursion and the exp/fade arithmetic one
epoch at a time, materializing every multiplier.
:class:`BandwidthProcess` draws only the innovations, skips the fade
blocks, and evaluates an epoch when it is read.  Over any parameters,
seed, chunk size and query order the two must agree: the same rates up
to the few-ulp difference between the truncated window sum and the
sequential recursion (so 1e-12 relative at zero absolute tolerance is a
tight pin), and the same rng state after every query, so the latency
and failure draws that share the rng are unchanged.

:class:`_WholeChunkOracle` pins the arithmetic bit for bit: it fills
each chunk's shocks in one draw and sums them with the process's own
``_x``, so a read that redraws only its window from a generator
checkpoint must return exactly the same rate.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import BandwidthProcess, MBPS
from repro.netsim.bandwidth import CHECKPOINT_EPOCHS, CHUNK_EPOCHS, _ar_window

EPOCH = 60.0
DAY = 86400.0


class _Reference:
    """Bulk draws per chunk, then the per-epoch recursion."""

    def __init__(self, rng, mean_rate, volatility=0.5, ar_coefficient=0.8,
                 epoch=60.0, fade_probability=0.02, fade_depth=8.0,
                 diurnal_amplitude=0.0, diurnal_period=86400.0,
                 chunk_epochs=CHUNK_EPOCHS):
        self.rng = rng
        self.mean_rate = mean_rate
        self.volatility = volatility
        self.ar = ar_coefficient
        self.epoch = epoch
        self.fade_probability = fade_probability
        self.fade_depth = fade_depth
        self.diurnal_amplitude = diurnal_amplitude
        self.diurnal_period = diurnal_period
        self.chunk_epochs = chunk_epochs
        self.phase = rng.uniform(0, 2 * math.pi)
        self.multipliers = []
        self.x = 0.0

    def _extend(self):
        size = self.chunk_epochs
        innovations = self.rng.standard_normal(size)
        coins = self.rng.random(size)
        depths = self.rng.uniform(2.0, self.fade_depth, size)
        scale = self.volatility * math.sqrt(1 - self.ar**2)
        for i in range(size):
            if not self.multipliers:
                self.x = self.volatility * float(innovations[0])
            else:
                self.x = self.ar * self.x + scale * float(innovations[i])
            multiplier = math.exp(self.x - self.volatility**2 / 2)
            if float(coins[i]) < self.fade_probability:
                multiplier /= float(depths[i])
            self.multipliers.append(multiplier)

    def rate_at(self, t):
        index = int(t // self.epoch)
        while len(self.multipliers) <= index:
            self._extend()
        rate = self.mean_rate * self.multipliers[index]
        if self.diurnal_amplitude:
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2 * math.pi * t / self.diurnal_period + self.phase
            )
        return max(rate, self.mean_rate * 1e-3)


class _WholeChunkOracle:
    """Bulk draws per chunk, whole-chunk shocks, the process's ``_x``."""

    def __init__(self, rng, process):
        self.rng = rng
        self.process = process
        self.phase = rng.uniform(0, 2 * math.pi)
        self.chunks = []  # per chunk: (shocks, coins, depths, carry in)
        self.carry = 0.0

    def _extend(self):
        p = self.process
        size = p.chunk_epochs
        shocks = self.rng.standard_normal(size)
        coins = self.rng.random(size)
        depths = self.rng.uniform(2.0, p.fade_depth, size)
        first = int(not self.chunks)
        shocks[first:] *= p.volatility * math.sqrt(1 - p.ar**2)
        shocks[:first] *= p.volatility
        self.chunks.append((shocks, coins, depths, self.carry))
        self.carry = p._x(shocks, size - 1, self.carry)

    def rate_at(self, t):
        p = self.process
        chunk, j = divmod(int(t // p.epoch), p.chunk_epochs)
        while len(self.chunks) <= chunk:
            self._extend()
        shocks, coins, depths, carry = self.chunks[chunk]
        multiplier = math.exp(
            p._x(shocks[:j + 1], j, carry) - p.volatility**2 / 2)
        if coins[j] < p.fade_probability:
            multiplier /= depths[j]
        rate = p.mean_rate * multiplier
        if p.diurnal_amplitude:
            rate *= 1.0 + p.diurnal_amplitude * math.sin(
                2 * math.pi * t / p.diurnal_period + self.phase
            )
        return max(rate, p.mean_rate * 1e-3)


def make_pair(seed, **params):
    params.setdefault("mean_rate", 10 * MBPS)
    params.setdefault("epoch", EPOCH)
    process = BandwidthProcess(np.random.default_rng(seed), **params)
    reference = _Reference(np.random.default_rng(seed), **params)
    return process, reference


@given(
    seed=st.integers(0, 2**31 - 1),
    volatility=st.floats(0.0, 1.5),
    ar=st.floats(0.0, 0.99),
    fade_probability=st.floats(0.0, 1.0),
    fade_depth=st.floats(2.0, 16.0),
    diurnal=st.floats(0.0, 0.9),
    chunk=st.integers(3, 64),
    order=st.sampled_from(["forward", "backward", "random"]),
    half_words=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_vectorized_matches_scalar_reference(
    seed, volatility, ar, fade_probability, fade_depth, diurnal, chunk,
    order, half_words, data,
):
    process, reference = make_pair(
        seed,
        volatility=volatility,
        ar_coefficient=ar,
        fade_probability=fade_probability,
        fade_depth=fade_depth,
        diurnal_amplitude=diurnal,
        chunk_epochs=chunk,
    )
    epochs = data.draw(
        st.lists(st.integers(0, 5 * chunk + 7), min_size=1, max_size=40),
        label="epochs",
    )
    if order == "forward":
        epochs.sort()
    elif order == "backward":
        epochs.sort(reverse=True)
    for index in epochs:
        # Off-boundary instants exercise the diurnal term too.
        t = EPOCH * (index + data.draw(st.floats(0.0, 0.99), label="offset"))
        got, want = process.rate_at(t), reference.rate_at(t)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
        assert (process._rng.bit_generator.state
                == reference.rng.bit_generator.state)
        if half_words:
            # 32-bit draws leave a buffered half word in the shared
            # generator; the skipped fade blocks must keep it.
            assert process._rng.integers(0, 7) == reference.rng.integers(0, 7)
    assert process.next_change_after(t) == (t // EPOCH + 1) * EPOCH


@given(
    seed=st.integers(0, 2**31 - 1),
    volatility=st.floats(0.0, 1.5),
    ar=st.one_of(st.just(0.0), st.floats(0.95, 0.995)),
    fade_probability=st.floats(0.0, 1.0),
    diurnal=st.floats(0.0, 0.9),
    order=st.sampled_from(["forward", "backward", "random"]),
    half_words=st.booleans(),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_checkpointed_reads_match_whole_chunk_oracle(
    seed, volatility, ar, fade_probability, diurnal, order, half_words, data,
):
    """Chunks around and above the checkpoint stride and above the
    K-shock window (K = 1 at ar = 0; hundreds to thousands at
    ar >= 0.95): every rate is bit-identical to the whole-chunk oracle
    and the shared rng state matches after every query."""
    window = len(_ar_window(ar))
    chunk = data.draw(st.one_of(
        st.integers(CHECKPOINT_EPOCHS - 3, 2 * CHECKPOINT_EPOCHS + 3),
        st.integers(window, 2 * window + CHECKPOINT_EPOCHS),
    ), label="chunk")
    process = BandwidthProcess(
        np.random.default_rng(seed), 10 * MBPS, volatility=volatility,
        ar_coefficient=ar, epoch=EPOCH, fade_probability=fade_probability,
        diurnal_amplitude=diurnal, chunk_epochs=chunk,
    )
    oracle = _WholeChunkOracle(np.random.default_rng(seed), process)
    # Runs of neighbouring epochs, as a transfer reads them, from a few
    # starts spread over four chunks.
    starts = data.draw(st.lists(st.integers(0, 4 * chunk), min_size=1,
                                max_size=6), label="starts")
    epochs = [start + step for start in starts
              for step in range(data.draw(st.integers(1, 4), label="run"))]
    if order == "forward":
        epochs.sort()
    elif order == "backward":
        epochs.sort(reverse=True)
    else:
        epochs = data.draw(st.permutations(epochs), label="shuffled")
    for index in epochs:
        t = EPOCH * (index + data.draw(st.floats(0.0, 0.99), label="offset"))
        assert process.rate_at(t) == oracle.rate_at(t)
        assert (process._rng.bit_generator.state
                == oracle.rng.bit_generator.state)
        if half_words:
            assert process._rng.integers(0, 7) == oracle.rng.integers(0, 7)


def test_backward_query_replays_a_chunk_without_touching_the_rng():
    chunk = 16
    jumped, _ = make_pair(5, chunk_epochs=chunk, fade_probability=0.3)
    forward, reference = make_pair(5, chunk_epochs=chunk,
                                   fade_probability=0.3)
    early = EPOCH * (chunk + 3.5)  # chunk 1, never read by `jumped`
    late = EPOCH * (6 * chunk + 2.5)
    want_early = forward.rate_at(early)
    assert jumped.rate_at(late) == forward.rate_at(late)
    state = jumped._rng.bit_generator.state
    assert jumped.rate_at(early) == want_early
    assert jumped._rng.bit_generator.state == state
    assert jumped.rate_at(early) == want_early
    assert math.isclose(want_early, reference.rate_at(early), rel_tol=1e-12)


@given(seed=st.integers(0, 2**31 - 1), chunk=st.integers(2, 32))
@settings(max_examples=30, deadline=None)
def test_query_order_does_not_change_realization(seed, chunk):
    """Jumping far ahead then back reads the same multipliers a strictly
    sequential scan produces."""
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
    further rng state."""
    process, _ = make_pair(7)
    first = process.rate_at(123.0)
    state = process._rng.bit_generator.state
    assert process.rate_at(123.0) == first
    assert process.rate_at(45.0) > 0
    assert process._rng.bit_generator.state == state


def test_default_chunk_meets_bulk_draw_bar():
    # Part of the draw order: a different chunk size is a different
    # realization of every link.
    assert CHUNK_EPOCHS == 4096
    process, _ = make_pair(3)
    assert process.chunk_epochs == CHUNK_EPOCHS


def test_floor_and_positivity_preserved():
    process, reference = make_pair(11, fade_probability=0.5, fade_depth=16.0)
    for i in range(200):
        rate = process.rate_at(i * EPOCH)
        assert rate >= process.mean_rate * 1e-3
        assert rate == pytest.approx(reference.rate_at(i * EPOCH), rel=1e-12)


def test_link_retains_one_chunk_of_shocks():
    """Reads spread over a week keep no shocks at all: per chunk drawn,
    the AR carry and a few generator states as ints — not one chunk's
    32 KiB of shocks, nor every epoch up to the latest read."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        process = BandwidthProcess(np.random.default_rng(5),
                                   mean_rate=10 * MBPS)
        for day in (0.5, 3, 6.5):
            process.rate_at(day * DAY)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 12 * 1024
    assert len(process._records) == 3
