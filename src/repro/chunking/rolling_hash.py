"""Buzhash (cyclic-polynomial) rolling hash.

Two implementations of the same function:

* :class:`BuzHash` — a byte-at-a-time streaming hasher, the reference
  implementation (and the shape a real file watcher would use).
* :func:`buzhash_all` — a numpy batch evaluation of the hash at every
  window position of a buffer: the sliding recurrence is unrolled
  ``WORD`` steps (rotation has period ``WORD``), turning the
  computation into a handful of linear passes — prefix-XOR plus
  per-residue chain accumulation — independent of window size.
  Because rotation distributes over XOR, the per-position contributions
  come straight out of a pre-rotated 32x256 substitution table
  (``rotl(T[b], r)`` for every rotation ``r``), so the hot loop is two
  precast gathers and one accumulate — no per-position rotate passes.

A window's hash depends only on the window's bytes, so hashing any
slice yields the same values as hashing the whole buffer at the same
windows; the segmenter relies on this to hash only the slices where a
cut may fall.

Both derive from the same 256-entry random substitution table, generated
deterministically so chunk boundaries are stable across runs and
machines — a requirement for content deduplication.  Hashes are 32-bit:
wide enough for any realistic boundary mask (2^21 for θ = 4 MB) at half
the memory traffic of 64-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BuzHash", "buzhash_all", "DEFAULT_WINDOW", "TABLE", "WORD"]

DEFAULT_WINDOW = 32

WORD = 32
_MASK = (1 << WORD) - 1

# A fixed substitution table; the seed is part of the on-disk format
# (changing it would re-chunk every file), so it is a constant.
TABLE = np.random.default_rng(0x5EED_0BAD).integers(
    0, 1 << WORD, size=256, dtype=np.uint32
)


def _rotl(value: int, amount: int) -> int:
    amount %= WORD
    if amount == 0:
        return value & _MASK
    return ((value << amount) | (value >> (WORD - amount))) & _MASK


class BuzHash:
    """Streaming buzhash over a fixed-size window.

    The hash of a window ``b[0..w-1]`` is
    ``XOR_j rotl(T[b[j]], w - 1 - j)``: rotation encodes position, so the
    hash is order-sensitive, and one rotate + two XORs slide the window.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        # Ring buffer: a fixed bytearray plus a cursor, so evicting the
        # outgoing byte is O(1) instead of the O(window) memmove a
        # ``pop(0)`` would cost on every streamed byte.
        self._ring = bytearray(window)
        self._cursor = 0
        self._filled = 0
        self._hash = 0
        # rotl(T[out], window) depends only on the outgoing byte value;
        # precompute the 256 rotations once per hasher.
        self._table_out = [_rotl(int(TABLE[b]), window) for b in range(256)]

    @property
    def value(self) -> int:
        """Current hash (of the last ``window`` bytes fed)."""
        return self._hash

    @property
    def primed(self) -> bool:
        """True once a full window has been consumed."""
        return self._filled >= self.window

    def update(self, byte: int) -> int:
        """Slide the window one byte forward; returns the new hash."""
        self._hash = _rotl(self._hash, 1)
        self._hash ^= int(TABLE[byte])
        if self._filled == self.window:
            self._hash ^= self._table_out[self._ring[self._cursor]]
        else:
            self._filled += 1
        self._ring[self._cursor] = byte
        self._cursor += 1
        if self._cursor == self.window:
            self._cursor = 0
        return self._hash

    def reset(self) -> None:
        self._cursor = 0
        self._filled = 0
        self._hash = 0


def _rotl_vec(values: np.ndarray, amounts: np.ndarray) -> np.ndarray:
    """Elementwise cyclic left rotation by per-element amounts."""
    amounts = amounts.astype(np.uint32, copy=False)
    complement = (np.uint32(WORD) - amounts) & np.uint32(WORD - 1)
    return (values << amounts) | (values >> complement)


def _tiled_pattern(start: int, count: int, transform,
                   dtype=np.uint32) -> np.ndarray:
    """``transform((start + arange(count)) % WORD)`` without a big modulo.

    The value pattern repeats with period WORD, so compute one period
    and tile it — one of the micro-optimizations that keep chunking at
    a few linear passes over the data.
    """
    base = transform((start + np.arange(WORD)) % WORD).astype(dtype)
    repeats = -(-count // WORD)
    return np.tile(base, repeats)[:count]


def _build_rot_flat() -> np.ndarray:
    """All 32 rotations of the substitution table, flattened.

    ``_ROT_FLAT[(r << 8) | b] == rotl(TABLE[b], r)`` — 32 KiB, so every
    rotation the batch recurrence needs is one gather away and no
    per-position rotate pass ever touches the data stream.
    """
    table = np.empty((WORD, 256), dtype=np.uint32)
    for r in range(WORD):
        for b in range(256):
            table[r, b] = _rotl(int(TABLE[b]), r)
    return table.reshape(-1)


_ROT_FLAT = _build_rot_flat()
_TABLE_INTS = TABLE.tolist()


def buzhash_all(data, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Hash every window position of ``data`` (bytes or 1-D uint8 array).

    Returns an array ``H`` of length ``len(data) - window + 1`` where
    ``H[i]`` equals the streaming hash after consuming
    ``data[: i + window]`` — i.e. the hash of the window *ending* at
    byte index ``i + window - 1``.

    Derivation: with the slide recurrence ``H[p] = rotl(H[p-1], 1) ^
    D[p]`` where ``D[p] = T[b[p]] ^ rotl(T[b[p-w]], w)``, unrolling
    ``WORD`` steps gives ``H[p] = H[p-WORD] ^ rotl(S[p], p mod WORD)``
    with ``S[p] = XOR_{m=0..WORD-1} rotl(D[p-m], -(p-m) mod WORD)`` — a
    difference of prefix-XORs of position-normalized contributions.
    Since rotation distributes over XOR, the normalized contributions
    ``rotl(D[p], -p)`` split into two direct gathers from the
    pre-rotated table ``_ROT_FLAT`` — ``D`` itself is never built.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    buf = (data if isinstance(data, np.ndarray)
           else np.frombuffer(data, dtype=np.uint8))
    n = len(buf)
    if n < window:
        return np.zeros(0, dtype=np.uint32)
    span = n - window + 1
    out = np.empty(span, dtype=np.uint32)

    # Sequential warm-up: the first window plus up to WORD-1 slides, on
    # Python ints (numpy scalar indexing would dominate a short call).
    head = min(WORD, span)
    rot_w = window % WORD
    lead = buf[:window + head - 1].tolist()
    h = 0
    for byte in lead[:window]:
        h = _rotl(h, 1) ^ _TABLE_INTS[byte]
    warm = [h]
    for p in range(window, window + head - 1):
        h = _rotl(h, 1) ^ _TABLE_INTS[lead[p]] ^ _rotl(
            _TABLE_INTS[lead[p - window]], rot_w
        )
        warm.append(h)
    out[:head] = warm
    if span <= WORD:
        return out

    # F[p] = rotl(D[p], -p mod WORD) for p in [window, n-1], stored at
    # index p - window.  Expanding D and distributing the rotation:
    # F = rotl(T[b[p]], -p) ^ rotl(T[b[p-w]], w - p); each term is one
    # gather from the pre-rotated table at index (rot << 8) | byte, with
    # the periodic rotation pattern folded into the index offsets.  The
    # byte stream is precast to the platform index dtype once so the
    # gathers skip np.take's per-call index conversion.
    m = n - window
    ibuf = buf.astype(np.intp)
    off_new = _tiled_pattern(
        window, m, lambda r: ((WORD - r) & (WORD - 1)) << 8, dtype=np.intp
    )
    idx = ibuf[window:] + off_new
    f = np.take(_ROT_FLAT, idx, mode="clip")
    off_out = _tiled_pattern(
        0, m, lambda r: ((WORD - r) & (WORD - 1)) << 8, dtype=np.intp
    )
    np.add(ibuf[:m], off_out, out=idx)
    f ^= np.take(_ROT_FLAT, idx, mode="clip")
    np.bitwise_xor.accumulate(f, out=f)
    prefix = f

    # S over out indices i in [WORD, span): with j = i - WORD,
    # S_j = prefix[j + WORD - 1] ^ prefix[j - 1]  (second term absent
    # for j = 0) — both terms are contiguous slices, no gathers.
    count = span - WORD
    s = prefix[WORD - 1:WORD - 1 + count].copy()
    s[1:] ^= prefix[:count - 1]

    # R = rotl(S[p], p mod WORD) with p = window + WORD - 1 + j.
    r_amounts = _tiled_pattern(
        window + WORD - 1, count, lambda r: r
    )
    r = _rotl_vec(s, r_amounts)

    # Chain accumulation: out[i] = out[i - WORD] ^ r[i - WORD], as a
    # cumulative XOR down each of WORD residue columns.
    rows = -(-count // WORD)
    padded = np.zeros(rows * WORD, dtype=np.uint32)
    padded[:count] = r
    grid = padded.reshape(rows, WORD)
    np.bitwise_xor.accumulate(grid, axis=0, out=grid)
    grid ^= out[:WORD]
    out[WORD:] = grid.reshape(-1)[:count]
    return out
