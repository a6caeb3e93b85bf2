"""Tests for content-based segmentation."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import Segment, Segmenter, buzhash_all, segment_ids
from repro.chunking import segmenter as segmenter_module

THETA = 4096  # small theta keeps tests fast; behaviour is scale-free
THETAS = [2048, 4096, 65536]
WINDOWS = [16, 32, 48]


def random_bytes(size, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def full_hash_cut_points(self, data):
    """The whole-buffer cutter ``cut_points`` replaced, kept as the oracle."""
    n = len(data)
    if n <= self.min_size:
        return [n] if n else []
    hashes = buzhash_all(data, self.window)
    candidate_mask = (hashes & self._mask) == self._mask
    # Candidate cut *after* byte index i+window-1 -> offset i+window.
    candidates = np.flatnonzero(candidate_mask) + self.window
    cuts = []
    start = 0
    position = 0  # index into candidates
    while n - start > self.max_size:
        low = start + self.min_size
        high = start + self.max_size
        position = np.searchsorted(candidates, low, side="left")
        if position < len(candidates) and candidates[position] <= high:
            cut = int(candidates[position])
        else:
            cut = high
        cuts.append(cut)
        start = cut
    # Tail handling: the remainder is <= max_size.  If it is
    # undersized and can merge into the previous segment without
    # breaking the band, merge (drop the previous cut).
    remainder = n - start
    if cuts and remainder < self.min_size:
        previous_start = cuts[-2] if len(cuts) >= 2 else 0
        if (n - previous_start) <= self.max_size:
            cuts.pop()
    cuts.append(n)
    return cuts


def is_candidate(segmenter, window_bytes):
    mask = int(segmenter._mask)
    return (int(buzhash_all(window_bytes, segmenter.window)[0]) & mask) == mask


@functools.lru_cache(maxsize=None)
def planting_kit(theta, window):
    """``(filler, boundary)`` for crafting candidates at chosen offsets.

    ``filler`` is a byte value whose constant window is no candidate
    (the all-zero window is one whenever ``window`` is a multiple of 32);
    ``boundary`` is a window that hashes to a candidate and, planted in
    filler, leaves every straddling window a non-candidate.
    """
    segmenter = Segmenter(theta, window)
    mask = int(segmenter._mask)
    filler = next(f for f in range(256)
                  if not is_candidate(segmenter, bytes([f]) * window))
    pad = np.full(window, filler, dtype=np.uint8)
    rng = np.random.default_rng(theta + window)
    while True:
        block = rng.integers(0, 256, size=1 << 16, dtype=np.uint8)
        hits = np.flatnonzero((buzhash_all(block, window) & mask) == mask)
        for i in hits:
            boundary = block[i:i + window]
            planted = np.concatenate([pad, boundary, pad])
            around = buzhash_all(planted, window)
            if np.flatnonzero((around & mask) == mask).tolist() == [window]:
                return filler, boundary.tobytes()


def planted_bytes(theta, window, size, offsets):
    """Filler bytes with a candidate at each offset in ``offsets``."""
    filler, boundary = planting_kit(theta, window)
    buf = np.full(size, filler, dtype=np.uint8)
    for offset in offsets:
        if window <= offset <= size:
            buf[offset - window:offset] = np.frombuffer(boundary, np.uint8)
    return buf.tobytes()


def test_theta_validation():
    with pytest.raises(ValueError):
        Segmenter(theta=16, window=32)


def test_empty_input():
    assert Segmenter(THETA).split(b"") == []


def test_small_file_is_single_segment():
    data = b"tiny file"
    segments = Segmenter(THETA).split(data)
    assert len(segments) == 1
    assert segments[0].data == data
    assert segments[0].offset == 0


def test_segments_reassemble_exactly():
    data = random_bytes(10 * THETA + 123, seed=1)
    segments = Segmenter(THETA).split(data)
    assert b"".join(s.data for s in segments) == data
    # Offsets must be consistent with concatenation order.
    position = 0
    for segment in segments:
        assert segment.offset == position
        position += segment.size


def test_segment_sizes_respect_band():
    data = random_bytes(50 * THETA, seed=2)
    segmenter = Segmenter(THETA)
    segments = segmenter.split(data)
    assert len(segments) > 10
    for segment in segments[:-1]:
        assert segmenter.min_size <= segment.size <= segmenter.max_size
    # The tail may only be undersized if merging would break the band.
    assert segments[-1].size <= segmenter.max_size


def test_mean_segment_size_near_theta():
    data = random_bytes(200 * THETA, seed=3)
    segments = Segmenter(THETA).split(data)
    mean = sum(s.size for s in segments) / len(segments)
    assert 0.6 * THETA < mean < 1.5 * THETA


def test_deterministic():
    data = random_bytes(20 * THETA, seed=4)
    a = segment_ids(Segmenter(THETA).split(data))
    b = segment_ids(Segmenter(THETA).split(data))
    assert a == b


def test_segment_id_is_content_hash():
    import hashlib

    segment = Segment.from_bytes(b"content")
    assert segment.segment_id == hashlib.sha1(b"content").hexdigest()


def test_identical_content_same_ids_across_files():
    """Dedup property: same content yields same segment IDs."""
    data = random_bytes(20 * THETA, seed=5)
    ids_a = segment_ids(Segmenter(THETA).split(data))
    ids_b = segment_ids(Segmenter(THETA).split(data))
    assert ids_a == ids_b


def test_local_edit_perturbs_few_segments():
    """The core CDC property: an edit invalidates O(1) segments."""
    data = bytearray(random_bytes(60 * THETA, seed=6))
    segmenter = Segmenter(THETA)
    original = set(segment_ids(segmenter.split(bytes(data))))
    # Flip one byte in the middle.
    data[30 * THETA] ^= 0xFF
    edited = segment_ids(segmenter.split(bytes(data)))
    changed = [sid for sid in edited if sid not in original]
    assert 1 <= len(changed) <= 3


def test_insertion_resynchronizes():
    """After inserting bytes, later segments must realign (dedup works)."""
    data = random_bytes(60 * THETA, seed=7)
    segmenter = Segmenter(THETA)
    original = set(segment_ids(segmenter.split(data)))
    edited_data = data[: 5 * THETA] + b"INSERTED!" + data[5 * THETA:]
    edited = segment_ids(segmenter.split(edited_data))
    shared = [sid for sid in edited if sid in original]
    # The vast majority of segments must be re-used.
    assert len(shared) >= len(edited) - 4


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=30000), st.integers(0, 100))
def test_reassembly_property(size, seed):
    data = random_bytes(size, seed=seed)
    segmenter = Segmenter(theta=2048)
    segments = segmenter.split(data)
    assert b"".join(s.data for s in segments) == data
    for segment in segments:
        assert segment.size <= segmenter.max_size
        assert segment.size > 0 or size == 0


def test_split_views_identical_to_split():
    data = random_bytes(20 * THETA, seed=9)
    segmenter = Segmenter(THETA)
    materialized = segmenter.split(data)
    views = segmenter.split_views(data)
    assert len(views) == len(materialized) > 1
    for view, segment in zip(views, materialized):
        assert view.segment_id == segment.segment_id
        assert view.offset == segment.offset
        assert view.size == segment.size
        assert view.to_bytes() == segment.data
        # Zero-copy: a read-only window into the original buffer.
        assert not view.data.flags.writeable
        assert not view.data.flags.owndata


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cut_points_match_full_hash_reference(data):
    """The band-limited scan cuts exactly where the whole-buffer hash did.

    Random, all-zero and crafted inputs — candidates planted at a band's
    low and high ends and either side of a scan-step boundary, assuming
    forced cuts before them — at several scan steps, passed as ``bytes``
    and as a ``uint8`` view that does not start its buffer.
    """
    theta = data.draw(st.sampled_from(THETAS), label="theta")
    window = data.draw(st.sampled_from(WINDOWS), label="window")
    size = data.draw(st.integers(0, 9 * theta), label="size")
    step = data.draw(
        st.sampled_from([61, 1024, segmenter_module._SCAN_STEP]), label="step"
    )
    kind = data.draw(st.sampled_from(["random", "zeros", "planted"]))
    segmenter = Segmenter(theta, window)
    if kind == "random":
        raw = random_bytes(size, seed=data.draw(st.integers(0, 2**32 - 1)))
    elif kind == "zeros":
        raw = bytes(size)
    else:
        interesting = [
            k * segmenter.max_size + delta
            for k in range(9)
            for delta in (segmenter.min_size, segmenter.max_size,
                          segmenter.min_size + step - 1,
                          segmenter.min_size + step,
                          segmenter.min_size + step + 1)
        ]
        offsets = data.draw(st.lists(st.sampled_from(interesting), max_size=6)
                            | st.lists(st.integers(0, size), max_size=12))
        raw = planted_bytes(theta, window, size, offsets)
    as_view = data.draw(st.booleans(), label="as_view")
    payload = np.frombuffer(b"\x5a" * 7 + raw, np.uint8)[7:] if as_view \
        else raw
    with mock.patch.object(segmenter_module, "_SCAN_STEP", step):
        assert segmenter.cut_points(payload) == \
            full_hash_cut_points(segmenter, raw)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("window", WINDOWS)
def test_all_zero_input(theta, window):
    """Zero windows are candidates only when ``window`` is a multiple of
    32 (the rotations of ``T[0]`` cancel to all-ones), so zeros cut at
    every band's low end there and are forced to its high end otherwise.
    """
    segmenter = Segmenter(theta, window)
    data = bytes(9 * theta + 5)
    cuts = segmenter.cut_points(data)
    assert cuts == full_hash_cut_points(segmenter, data)
    every = (segmenter.min_size
             if is_candidate(segmenter, bytes(window))
             else segmenter.max_size)
    assert cuts[:-1] == list(range(every, len(data) - segmenter.max_size
                                   + every, every))


@pytest.mark.parametrize(
    "theta,step",
    # step 1 hashes one window per call; a 65 536-wide band of those is slow
    [(2048, 1)] + [(t, s) for t in THETAS for s in (61, 1024, None)],
)
def test_planted_candidate_at_band_edges_and_step_boundary(theta, step):
    segmenter = Segmenter(theta)
    step = step or segmenter_module._SCAN_STEP
    low, high = segmenter.min_size, segmenter.max_size
    targets = [low, high] + [t for t in (low + step - 1, low + step,
                                         low + step + 1) if t <= high]
    with mock.patch.object(segmenter_module, "_SCAN_STEP", step):
        for target in targets:
            data = planted_bytes(theta, segmenter.window, 2 * high, [target])
            cuts = segmenter.cut_points(data)
            assert cuts[0] == target
            assert cuts == full_hash_cut_points(segmenter, data)


class _HashCounter:
    def __init__(self):
        self.calls = 0
        self.bytes = 0

    def __call__(self, data, window):
        self.calls += 1
        self.bytes += len(data)
        return buzhash_all(data, window)


def test_file_within_band_is_never_hashed(monkeypatch):
    counter = _HashCounter()
    monkeypatch.setattr(segmenter_module, "buzhash_all", counter)
    segmenter = Segmenter(THETA)
    for size in (0, 1, segmenter.min_size, segmenter.min_size + 1,
                 segmenter.max_size):
        assert segmenter.cut_points(random_bytes(size, seed=size)) == \
            ([size] if size else [])
    assert counter.calls == 0


def test_hashing_is_bounded_by_the_scanned_bands(monkeypatch):
    """Each segment hashes its band up to the cut, plus at most one step
    of overshoot and one window of lead-in per step — never the file."""
    theta = 65536
    counter = _HashCounter()
    monkeypatch.setattr(segmenter_module, "buzhash_all", counter)
    segmenter = Segmenter(theta)
    data = random_bytes(20 * theta, seed=11)
    cuts = segmenter.cut_points(data)
    step = segmenter_module._SCAN_STEP
    bound = counter.calls * segmenter.window
    start = 0
    for cut in cuts[:-1]:
        bound += cut - (start + segmenter.min_size) + step
        start = cut
    assert cuts == full_hash_cut_points(segmenter, data)
    assert counter.bytes <= bound < len(data)
