"""Tests for the file ⇄ segments ⇄ blocks pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import UniDriveConfig
from repro.core.pipeline import (
    BlockPipeline, SyntheticPayload, block_hash, block_hash_many,
    block_hash_rows,
)

CONFIG = UniDriveConfig(theta=64 * 1024)


def make():
    return BlockPipeline(CONFIG, n_clouds=5)


def content(size, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def test_geometry_matches_placement_math():
    pipeline = make()
    # k=3, K_s=2, N=5 -> cap 2/cloud -> n = 10 blocks max.
    assert pipeline.k == 3
    assert pipeline.n == 10
    assert pipeline.code.n == 10


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        BlockPipeline(UniDriveConfig(k_reliability=6), n_clouds=5)


def test_segment_and_record():
    pipeline = make()
    data = content(200 * 1024, seed=1)
    segments = pipeline.segment_file(data)
    assert b"".join(s.data for s in segments) == data
    record = pipeline.make_record(segments[0])
    assert record.segment_id == segments[0].segment_id
    assert record.size == segments[0].size
    assert (record.n, record.k) == (10, 3)
    assert record.locations == {}


def test_block_path_layout():
    pipeline = make()
    record = pipeline.make_record(pipeline.segment_file(b"x" * 100)[0])
    path = pipeline.block_path(record.segment_id, 7)
    assert path == f"/unidrive/blocks/{record.segment_id}.7"


def test_encode_decode_roundtrip():
    pipeline = make()
    data = content(150 * 1024, seed=2)
    for segment in pipeline.segment_file(data):
        record = pipeline.make_record(segment)
        blocks = pipeline.encode_segment(segment)
        assert len(blocks) == 10
        # Any k=3 blocks reconstruct.
        got = pipeline.decode_segment(
            record, {1: blocks[1], 5: blocks[5], 9: blocks[9]}
        )
        assert got == segment.data


def test_encode_block_matches_encode_segment():
    pipeline = make()
    segment = pipeline.segment_file(content(80 * 1024, seed=3))[0]
    full = pipeline.encode_segment(segment)
    for index in (0, 4, 9):
        assert pipeline.code.encode_block(segment.data, index) == full[index]


def test_encode_block_index_validation():
    pipeline = make()
    with pytest.raises(ValueError):
        pipeline.code.encode_block(b"data", 10)


def test_assemble_file_order():
    pipeline = make()
    assert pipeline.assemble_file([b"ab", b"cd", b"ef"]) == b"abcdef"
    assert pipeline.assemble_file([]) == b""


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=300_000), st.integers(0, 50))
def test_full_pipeline_roundtrip_property(size, seed):
    pipeline = make()
    data = content(size, seed=seed)
    reassembled = []
    for segment in pipeline.segment_file(data):
        record = pipeline.make_record(segment)
        blocks = pipeline.encode_segment(segment)
        chosen = {i: blocks[i] for i in (2, 6, 7)}
        reassembled.append(pipeline.decode_segment(record, chosen))
    assert pipeline.assemble_file(reassembled) == data


# -- batched fingerprints and the fused ingest path -------------------------


@given(blocks=st.lists(st.binary(min_size=0, max_size=64), max_size=6))
def test_block_hash_many_matches_scalar(blocks):
    """Batched digests are identical to mapping ``block_hash``.

    Hypothesis drives both branches: equal-length lists take the
    packed-matrix reduction, ragged ones the scalar fallback.
    """
    assert block_hash_many(blocks) == [block_hash(b) for b in blocks]


def test_block_hash_rows_matches_scalar():
    rng = np.random.default_rng(3)
    for size in (1, 7, 8, 9, 100):
        width = -(-size // 8) * 8
        rows = np.zeros((5, width), dtype=np.uint8)
        rows[:, :size] = rng.integers(0, 256, size=(5, size), dtype=np.uint8)
        assert block_hash_rows(rows, size) == [
            block_hash(rows[i, :size].tobytes()) for i in range(5)
        ]


def test_ingest_file_matches_segment_file():
    pipeline = make()
    data = content(300 * 1024, seed=11)
    segments = pipeline.segment_file(data)
    views = pipeline.ingest_file(data)
    assert len(views) == len(segments) > 1
    for view, segment in zip(views, segments):
        assert view.segment_id == segment.segment_id
        assert view.offset == segment.offset
        assert view.to_bytes() == segment.data
        assert not view.data.flags.writeable


def test_encode_block_with_digest_matches_scalar_hash():
    pipeline = make()
    data = content(90 * 1024, seed=12)
    segment = pipeline.segment_file(data)[0]
    full = pipeline.encode_segment(segment)
    for index in range(pipeline.n):
        block, digest = pipeline.encode_block_with_digest(
            segment.segment_id, segment.data, index
        )
        assert block == full[index]
        assert digest == block_hash(block)
    # The digests come from one batched pass cached on the encode
    # state, not a per-block hash.
    state = pipeline.encode_state(segment.segment_id, segment.data)
    assert state.digests == [block_hash(b) for b in full]


def test_encode_block_with_digest_accepts_segment_views():
    pipeline = make()
    data = content(120 * 1024, seed=13)
    for view in pipeline.ingest_file(data):
        block, digest = pipeline.encode_block_with_digest(
            view.segment_id, view.data, 0
        )
        assert block == pipeline.code.encode(view.to_bytes())[0]
        assert digest == block_hash(block)


def test_synthetic_blocks_are_views_of_one_zero_buffer():
    """Synthetic blocks of two sizes are read-only prefixes of one
    shared zero buffer, each exactly its coded length."""
    pipeline = make()
    large, small = SyntheticPayload(CONFIG.theta), SyntheticPayload(1000)
    big_block, digest = pipeline.encode_block_with_digest("syn-a", large, 0)
    small_block = pipeline.encode_block("syn-b", small, 4)
    assert len(big_block) == pipeline.code.shard_size(CONFIG.theta)
    assert len(small_block) == pipeline.code.shard_size(1000)
    assert small_block.obj is big_block.obj
    assert small_block.readonly and big_block.readonly
    assert not any(big_block)
    assert digest == f"{0:016x}{len(big_block):08x}"
