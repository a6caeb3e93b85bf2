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

The link shares its connection's rng with the latency and failure draws,
so each chunk of :data:`CHUNK_EPOCHS` epochs consumes, in order, a block
of normal innovations, a block of fade coins and a block of fade depths
(one 64-bit word per epoch each).  ``x_j`` sums ``ar**(j-m) * s_m`` over
the last K shocks, plus ``ar**(j+1)`` times the previous chunk's final
``x`` while ``j < K``, where ``ar**K <= 2**-53`` (K = 165 at ``ar = 0.8``):
elementwise products and ``math.fsum``, no BLAS, so every host rounds
identically.  A link keeps no shocks: per chunk drawn, a few generator
states (:meth:`BandwidthProcess._draw`), from which a read redraws the K
shocks it sums, and its fade coin and depth, on a scratch PCG64.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["BandwidthProcess", "ConstantBandwidth", "MBPS", "CHUNK_EPOCHS"]

MBPS = 1_000_000 / 8.0  # bytes per second in one megabit per second

#: Epochs per chunk of rng draws; part of the draw order.
CHUNK_EPOCHS = 4096

#: Innovations between a chunk's generator checkpoints: how far back a
#: read may have to redraw, not part of the draw order.
CHECKPOINT_EPOCHS = 1024


@functools.lru_cache(maxsize=None)
def _ar_window(ar: float) -> np.ndarray:
    """``ar**(K-1), ..., ar**1, ar**0``: the weights of the last ``K``
    shocks, where ``K`` is the smallest length with ``ar**K <= 2**-53``."""
    size = 1 if ar == 0 else max(1, math.ceil(53 * math.log(2) / -math.log(ar)))
    window = np.array([ar**k for k in range(size - 1, -1, -1)])
    window.flags.writeable = False
    return window


class BandwidthProcess:
    """Lazily-evaluated piecewise-constant bandwidth, in bytes/second.

    ``rng`` must be PCG64-backed (``numpy.random.default_rng``): skipping
    the fade blocks relies on ``advance`` counting 64-bit words.
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
    ):
        if mean_rate <= 0:
            raise ValueError(f"mean_rate must be positive, got {mean_rate}")
        if not volatility >= 0:
            raise ValueError(f"volatility must be non-negative, got {volatility}")
        if not 0 <= ar_coefficient < 1:
            raise ValueError("ar_coefficient must be in [0, 1)")
        if epoch <= 0:
            raise ValueError("epoch must be positive")
        if not 0 <= fade_probability <= 1:
            raise ValueError("fade_probability must be in [0, 1]")
        if not fade_depth >= 2:
            # A fade divides the rate by a depth drawn from [2, fade_depth).
            raise ValueError(f"fade_depth must be at least 2, got {fade_depth}")
        if not 0 <= diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if chunk_epochs < 1:
            raise ValueError("chunk_epochs must be positive")
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("BandwidthProcess needs a PCG64-backed generator")
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
        self._offset = volatility**2 / 2
        self._floor = mean_rate * 1e-3
        self._window = _ar_window(ar_coefficient)
        self._memo: dict = {}  # epoch index -> multiplier, every epoch read
        # Per chunk: (carry in, state at its coin block, the state before
        # each block of CHECKPOINT_EPOCHS innovations, None if not kept).
        self._records: list = []
        self._carry = 0.0  # x at the latest chunk's last epoch
        # The PCG64 stream of every kept state, and a Generator set to them.
        self._inc = self._scratch = None

    # -- drawing ---------------------------------------------------------

    def _scale(self, shocks: np.ndarray, first: bool) -> np.ndarray:
        """Scale innovations in place; ``first`` if they start at epoch 0."""
        shocks[int(first):] *= self._innovation_scale
        shocks[:int(first)] *= self.volatility  # x_0 is stationary
        return shocks

    def _draw(self, read: int | None) -> np.ndarray:
        """Consume the next chunk's draws from the connection's rng and
        return its shocks, keeping the state before its first block and
        before each block from the one holding ``read``'s window on."""
        size, stride, rng = self.chunk_epochs, CHECKPOINT_EPOCHS, self._rng
        bit_generator = rng.bit_generator
        if self._scratch is None:  # seeded cheaply; _seek sets all its state
            self._inc = bit_generator.state["state"]["inc"]
            self._scratch = np.random.Generator(
                np.random.PCG64(bit_generator.seed_seq))
        after = size if read is None else read + 1 - len(self._window) - stride
        states = [None] * -(-size // stride)
        shocks = np.empty(size)
        for at in range(0, size, stride):
            if not at or at > after:
                states[at // stride] = bit_generator.state["state"]["state"]
            rng.standard_normal(out=shocks[at:at + stride])
        self._scale(shocks, not self._records)
        coin = bit_generator.state
        bit_generator.advance(2 * size)
        if coin["has_uint32"] or coin["uinteger"]:
            # `advance` cleared the buffered 32-bit half word: restore it.
            bit_generator.state = dict(
                bit_generator.state, has_uint32=coin["has_uint32"],
                uinteger=coin["uinteger"])
        self._records.append((self._carry, coin["state"]["state"], states))
        self._carry = self._x(shocks, size - 1, self._carry)
        return shocks

    def _seek(self, state: int) -> np.random.Generator:
        """The scratch generator, set to one of the kept states."""
        self._scratch.bit_generator.state = {
            "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": self._inc}}
        return self._scratch

    def _x(self, shocks: np.ndarray, j: int, carry: float) -> float:
        """The AR(1) log-state at epoch ``j`` of a chunk, from ``shocks``
        ending at ``j``: at least its last K, or all from the chunk start."""
        window = self._window
        size = len(window)
        if j >= size:
            terms = (shocks[-size:] * window).tolist()
        else:
            terms = (shocks[-1 - j:] * window[size - 1 - j:]).tolist()
            terms.append(self.ar ** (j + 1) * carry)
        return math.fsum(terms)

    def _fade(self, coin: int, j: int) -> float:
        """Epoch ``j``'s fade divisor: 1.0 unless its coin, word ``j`` from
        state ``coin``, falls below the fade probability."""
        words = self._seek(coin).bit_generator
        words.advance(j)
        if (words.random_raw() >> 11) * 2.0**-53 >= self.fade_probability:
            return 1.0
        words.advance(self.chunk_epochs - 1)  # to word n + j: the depth
        depth = (words.random_raw() >> 11) * 2.0**-53
        return 2.0 + (self.fade_depth - 2.0) * depth

    def _multiplier(self, index: int) -> float:
        chunk, j = divmod(index, self.chunk_epochs)
        shocks = None  # the read that draws a chunk uses the fresh fill
        while len(self._records) <= chunk:
            shocks = self._draw(j if len(self._records) == chunk else None)
        carry, coin, states = self._records[chunk]
        if shocks is None:  # redraw from the last state before j's window
            block = max(0, j + 1 - len(self._window)) // CHECKPOINT_EPOCHS
            while states[block] is None:
                block -= 1
            at = block * CHECKPOINT_EPOCHS
            shocks = self._scale(self._seek(states[block]).standard_normal(
                j + 1 - at), chunk == 0 and at == 0)
        x = self._x(shocks[:j + 1], j, carry)
        return math.exp(x - self._offset) / self._fade(coin, j)

    # -- queries ---------------------------------------------------------

    def rate_at(self, t: float) -> float:
        """Per-connection rate in bytes/second at virtual time ``t``."""
        if t < 0:
            raise ValueError(f"negative time {t}")
        index = int(t // self.epoch)
        multiplier = self._memo.get(index)
        if multiplier is None:
            multiplier = self._memo[index] = self._multiplier(index)
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
