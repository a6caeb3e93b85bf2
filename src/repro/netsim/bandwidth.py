"""Stochastic per-connection bandwidth processes.

The paper's measurement study (§3.2) found CCS bandwidth to be

* spatially diverse — up to 60x between clouds at one location,
* temporally volatile — 17x max/min within a single day,
* unpredictable — no usable diurnal pattern, independent across clouds.

We model the per-connection rate of one (client-location, cloud,
direction) link as a piecewise-constant process over fixed epochs:

``rate(t) = mean * exp(x_e - sigma^2/2) * diurnal(t) / fade_e``

where ``x_e`` is a stationary AR(1) series in log space (stationary
standard deviation ``volatility``) and ``fade_e`` is an occasional deep
fade (heavy tail).

Epochs are generated lazily in numpy chunks of :data:`CHUNK_EPOCHS`
multipliers at a time: the chunk's normal innovations, fade coin-flips
and fade depths are drawn as three bulk array draws, the AR(1)
recursion runs as a doubling scan (:func:`_ar1_scan`), and the resulting
multipliers are cached in one flat array — so ``rate_at`` /
``next_change_after`` are O(1) array reads and a month-long campaign
costs ~10 chunk generations per link instead of ~43,200 scalar rng
round-trips.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BandwidthProcess",
    "ConstantBandwidth",
    "MBPS",
    "CHUNK_EPOCHS",
]

MBPS = 1_000_000 / 8.0  # bytes per second in one megabit per second

#: Epochs generated per bulk draw (issue bar: >= 4096).
CHUNK_EPOCHS = 4096


class BandwidthProcess:
    """Lazily-sampled piecewise-constant bandwidth, in bytes/second.

    Epoch multipliers are produced chunk-wise; see the module docstring
    for the draw scheme.  Within one chunk the rng is consumed as three
    bulk draws (innovations, fade coins, fade depths).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        mean_rate: float,
        volatility: float = 0.5,
        ar_coefficient: float = 0.8,
        epoch: float = 60.0,
        fade_probability: float = 0.02,
        fade_depth: float = 8.0,
        diurnal_amplitude: float = 0.0,
        diurnal_period: float = 86400.0,
        chunk_epochs: int = CHUNK_EPOCHS,
        window_chunks: int = None,
    ):
        if mean_rate <= 0:
            raise ValueError(f"mean_rate must be positive, got {mean_rate}")
        if not 0 <= ar_coefficient < 1:
            raise ValueError("ar_coefficient must be in [0, 1)")
        if epoch <= 0:
            raise ValueError("epoch must be positive")
        if not 0 <= diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if chunk_epochs < 1:
            raise ValueError("chunk_epochs must be positive")
        if window_chunks is not None and window_chunks < 1:
            raise ValueError("window_chunks must be positive")
        self.mean_rate = mean_rate
        self.volatility = volatility
        self.ar = ar_coefficient
        self.epoch = epoch
        self.fade_probability = fade_probability
        self.fade_depth = fade_depth
        self.diurnal_amplitude = diurnal_amplitude
        self.diurnal_period = diurnal_period
        self.chunk_epochs = chunk_epochs
        self._rng = rng
        self._phase = rng.uniform(0, 2 * math.pi)
        self._innovation_scale = volatility * math.sqrt(1 - ar_coefficient**2)
        self._floor = mean_rate * 1e-3
        # Materialized epoch multipliers.  Generated as numpy chunks but
        # stored as a plain float list: `rate_at` is a scalar hot path
        # (one lookup per transfer-engine decision point), and list
        # indexing returns an unboxed float where ndarray indexing
        # allocates an np.float64 wrapper per call.
        self._multipliers: list = []
        self._count = 0  # epochs generated so far
        self._x_state = 0.0  # AR(1) carry into the next chunk
        # Lean retention for fleet-scale runs: keep only the newest
        # ``window_chunks`` multiplier chunks (as compact float64
        # arrays) instead of materializing an ever-growing float list.
        # The rng consumption and multiplier *values* are identical to
        # unbounded mode — only the storage policy differs; querying a
        # time whose chunk was already evicted raises (engines query
        # monotonically, so this never happens in normal operation).
        self._window = window_chunks
        self._chunks: dict = {} if window_chunks is not None else None

    # -- chunked epoch generation ---------------------------------------

    def _draw_chunk(self):
        """One chunk's worth of raw rng material, in a fixed order."""
        size = self.chunk_epochs
        innovations = self._rng.standard_normal(size)
        fade_coins = self._rng.random(size)
        fade_depths = self._rng.uniform(2.0, self.fade_depth, size)
        return innovations, fade_coins, fade_depths

    def _chunk_multipliers(self, innovations, fade_coins, fade_depths):
        """Vectorized AR(1) recursion + fades over one chunk's draws."""
        shocks = self._innovation_scale * innovations
        first = self._count == 0
        if first:
            # Epoch 0 starts the series at its stationary distribution.
            shocks[0] = self.volatility * innovations[0]
        x = _ar1_scan(self.ar, shocks, 0.0 if first else self._x_state)
        x_last = float(x[-1])
        x -= self.volatility**2 / 2
        multipliers = np.exp(x, out=x)
        faded = fade_coins < self.fade_probability
        if faded.any():
            multipliers[faded] /= fade_depths[faded]
        return multipliers, x_last

    def _extend_to(self, index: int) -> None:
        while self._count <= index:
            multipliers, self._x_state = self._chunk_multipliers(
                *self._draw_chunk()
            )
            if self._window is None:
                self._multipliers.extend(multipliers.tolist())
                self._count = len(self._multipliers)
            else:
                chunk_index = self._count // self.chunk_epochs
                self._chunks[chunk_index] = multipliers
                self._count += len(multipliers)
                evicted = chunk_index - self._window
                if evicted in self._chunks:
                    del self._chunks[evicted]

    # -- queries ---------------------------------------------------------

    def rate_at(self, t: float) -> float:
        """Per-connection rate in bytes/second at virtual time ``t``."""
        if t < 0:
            raise ValueError(f"negative time {t}")
        index = int(t // self.epoch)
        if index >= self._count:
            self._extend_to(index)
        if self._window is None:
            multiplier = self._multipliers[index]
        else:
            chunk = self._chunks.get(index // self.chunk_epochs)
            if chunk is None:
                raise RuntimeError(
                    f"bandwidth epoch {index} evicted from the "
                    f"{self._window}-chunk retention window"
                )
            multiplier = float(chunk[index % self.chunk_epochs])
        rate = self.mean_rate * multiplier
        if self.diurnal_amplitude:
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2 * math.pi * t / self.diurnal_period + self._phase
            )
        floor = self._floor
        return rate if rate > floor else floor

    def next_change_after(self, t: float) -> float:
        """Next time the piecewise-constant rate may change."""
        return (int(t // self.epoch) + 1) * self.epoch

    def scale(self, factor: float) -> None:
        """Multiply the mean rate (and its floor) by ``factor`` from now on.

        The fault injector's slow-cloud windows use this to degrade a
        link without touching the multiplier stream: rng consumption
        and epoch boundaries are unchanged, so scaling down and back
        up restores the exact original rate trajectory.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        self.mean_rate *= factor
        self._floor *= factor


def _ar1_scan(ar: float, shocks: np.ndarray, x0: float) -> np.ndarray:
    """``x[i] = ar * x[i-1] + shocks[i]`` seeded by ``x0``, in place.

    A Hillis–Steele doubling scan: after the pass with stride ``step``
    each entry holds the recursion's sum over its last ``2 * step``
    shocks, so a chunk of ``n`` epochs takes ceil(log2 n) elementwise
    numpy passes instead of ``n`` Python iterations.  Elementwise ufuncs
    only (no BLAS, no FFT), so every host rounds identically; the result
    differs from the sequential recursion by a few ulps, bounded by
    ``64 * eps * max|shocks| / (1 - ar)``.
    """
    shocks[0] += ar * x0
    step, power = 1, ar
    while step < len(shocks):
        shocks[step:] += power * shocks[:-step]
        step, power = 2 * step, power * power
    return shocks


class ConstantBandwidth:
    """A degenerate process with a fixed rate (for tests/instant clouds)."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate

    def rate_at(self, t: float) -> float:
        return self.rate

    def next_change_after(self, t: float) -> float:
        return math.inf
