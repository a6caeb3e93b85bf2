"""Tests for the buzhash rolling hash (streaming vs vectorized parity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import BuzHash, buzhash_all


def streaming_hashes(data: bytes, window: int):
    """All window hashes computed with the byte-at-a-time reference."""
    hasher = BuzHash(window)
    out = []
    for i, byte in enumerate(data):
        hasher.update(byte)
        if i >= window - 1:
            out.append(hasher.value)
    return out


def test_window_validation():
    with pytest.raises(ValueError):
        BuzHash(0)
    with pytest.raises(ValueError):
        buzhash_all(b"abc", 0)


def test_short_input_returns_empty():
    assert len(buzhash_all(b"ab", window=8)) == 0


def test_primed_flag():
    hasher = BuzHash(4)
    for byte in b"abc":
        hasher.update(byte)
    assert not hasher.primed
    hasher.update(ord("d"))
    assert hasher.primed


def test_hash_depends_on_order():
    a = buzhash_all(b"abcdXXXX", window=4)
    b = buzhash_all(b"dcbaXXXX", window=4)
    assert a[0] != b[0]


def test_sliding_consistency():
    """Hash of a window must not depend on what preceded it."""
    window = 8
    payload = b"identical-window-content"
    one = buzhash_all(b"AAAA" + payload, window)
    two = buzhash_all(b"ZZZZZZZZZZ" + payload, window)
    # Hashes of windows fully inside `payload` must agree.
    assert one[-1] == two[-1]


def test_reset():
    hasher = BuzHash(4)
    for byte in b"abcdef":
        hasher.update(byte)
    hasher.reset()
    assert hasher.value == 0
    assert not hasher.primed


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=512),
       st.sampled_from([1, 2, 4, 16, 32, 48, 70]))
def test_vectorized_matches_streaming(data, window):
    if len(data) < window:
        assert len(buzhash_all(data, window)) == 0
        return
    vectorized = buzhash_all(data, window)
    reference = streaming_hashes(data, window)
    assert vectorized.tolist() == [int(h) for h in reference]


def test_vectorized_large_input_smoke():
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=1 << 18, dtype=np.uint8).tobytes()
    hashes = buzhash_all(data, 32)
    assert len(hashes) == (1 << 18) - 31
    # Hash values should look uniform-ish: no single value dominating.
    _, counts = np.unique(hashes[:10000], return_counts=True)
    assert counts.max() < 10

