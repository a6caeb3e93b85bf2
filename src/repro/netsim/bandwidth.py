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
(one 64-bit word per epoch each).  Drawing a chunk keeps its shocks in
one reused buffer and skips the fade blocks with ``advance``; only the
epochs a caller reads are evaluated, then memoised.  ``x_j`` sums
``ar**(j-m) * s_m`` over the last K shocks, plus ``ar**(j+1)`` times the
previous chunk's final ``x`` while ``j < K``, where ``ar**K <= 2**-53``
(K = 165 at ``ar = 0.8``): elementwise products and ``math.fsum``, no
BLAS, so every host rounds identically.  The fade coin and depth of
epoch ``j`` are words ``j`` and ``n + j`` after the innovation block,
read by a scratch PCG64 kept positioned there.  Per chunk drawn a link
keeps only the rng state before its draws and the AR(1) carry into it;
a read of an older chunk replays its innovations on the scratch.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "BandwidthProcess",
    "ConstantBandwidth",
    "MBPS",
    "CHUNK_EPOCHS",
]

MBPS = 1_000_000 / 8.0  # bytes per second in one megabit per second

#: Epochs per chunk of rng draws; part of the draw order.
CHUNK_EPOCHS = 4096


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
        self._records: list = []  # per chunk: (rng state before it, carry in)
        self._shocks = None  # the latest chunk's shocks, one reused buffer
        self._coin_base = None  # rng state at the latest chunk's coin block
        self._scratch = None  # PCG64 positioned in some chunk's fade blocks
        self._scratch_at = (-1, 0)  # (chunk, word offset) it reads next

    # -- drawing ---------------------------------------------------------

    def _fill_shocks(self, rng, out: np.ndarray, first: bool) -> np.ndarray:
        """Draw one chunk's innovations into ``out`` and scale them."""
        rng.standard_normal(out=out)
        out[int(first):] *= self._innovation_scale
        if first:  # epoch 0 starts at the stationary distribution
            out[0] *= self.volatility
        return out

    def _draw(self) -> None:
        """Consume the next chunk's draws from the connection's rng."""
        size = self.chunk_epochs
        if self._records:
            carry = self._x(self._shocks, size - 1, self._records[-1][1])
        else:
            carry = 0.0
            self._shocks = np.empty(size)
            # Seeded like the connection's (cheap); its state is always set.
            self._scratch = np.random.PCG64(self._rng.bit_generator.seed_seq)
        bit_generator = self._rng.bit_generator
        self._records.append((bit_generator.state, carry))
        self._fill_shocks(self._rng, self._shocks, len(self._records) == 1)
        self._coin_base = coin_base = bit_generator.state
        bit_generator.advance(2 * size)
        if coin_base["has_uint32"] or coin_base["uinteger"]:
            # `advance` clears the buffered 32-bit half word, which the
            # skipped 64-bit draws would have left in place.
            bit_generator.state = dict(
                bit_generator.state, has_uint32=coin_base["has_uint32"],
                uinteger=coin_base["uinteger"])

    def _x(self, shocks: np.ndarray, j: int, carry: float) -> float:
        """The AR(1) log-state at epoch ``j`` of a chunk."""
        window = self._window
        size = len(window)
        if j >= size:
            terms = (shocks[j + 1 - size:j + 1] * window).tolist()
        else:
            terms = (shocks[:j + 1] * window[size - 1 - j:]).tolist()
            terms.append(self.ar ** (j + 1) * carry)
        return math.fsum(terms)

    def _uniform(self, chunk: int, offset: int) -> float:
        """The double in [0, 1) from word ``offset`` of a chunk's fade blocks."""
        scratch = self._scratch
        at_chunk, at = self._scratch_at
        if at_chunk != chunk:
            scratch.state = self._coin_base
            at = 0
        if offset != at:
            scratch.advance(offset - at)  # modulo 2**128: back is fine too
        self._scratch_at = (chunk, offset + 1)
        return (scratch.random_raw() >> 11) * (1.0 / 9007199254740992.0)

    def _replay(self, chunk: int) -> np.ndarray:
        """An older chunk's shocks, redrawn on the scratch generator,
        which is left at that chunk's coin block."""
        self._scratch.state = self._records[chunk][0]
        self._scratch_at = (chunk, 0)
        return self._fill_shocks(np.random.Generator(self._scratch),
                                 np.empty(self.chunk_epochs), chunk == 0)

    def _multiplier(self, index: int) -> float:
        chunk, j = divmod(index, self.chunk_epochs)
        while len(self._records) <= chunk:
            self._draw()
        if chunk == len(self._records) - 1:
            shocks = self._shocks
        else:
            shocks = self._replay(chunk)
        multiplier = math.exp(
            self._x(shocks, j, self._records[chunk][1]) - self._offset
        )
        if self._uniform(chunk, j) < self.fade_probability:
            depth = self._uniform(chunk, self.chunk_epochs + j)
            multiplier /= 2.0 + (self.fade_depth - 2.0) * depth
        return multiplier

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
