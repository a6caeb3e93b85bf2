"""Property tests: table-driven GF(256) ops and cached encode paths.

The hot paths (``MUL_TABLE`` gathers in ``mul_vec``/``addmul_vec``/
``matmul``, the ``EncodeState`` shard cache) must be *bit-identical* to
the scalar log/exp reference arithmetic — these properties pin that
down, including the edge cases the table path no longer special-cases
(zero elements, scalar 0/1, empty data).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import ReedSolomonCode, gf256, matmul
from repro.codec import matrix as gfm
from repro.core.config import UniDriveConfig
from repro.core.pipeline import BlockPipeline

# -- scalar log/exp reference implementations -------------------------------


def mul_vec_reference(scalar, vec):
    """The pre-table implementation: log/exp double gather + zero fixup."""
    if scalar == 0:
        return np.zeros_like(vec)
    if scalar == 1:
        return vec.copy()
    log_s = gf256.LOG_TABLE[scalar]
    out = gf256.EXP_TABLE[log_s + gf256.LOG_TABLE[vec]].astype(
        np.uint8, copy=False
    )
    out[vec == 0] = 0
    return out


def matmul_reference(a, b):
    """Scalar-multiplication matmul, one gf256.mul at a time."""
    rows, inner = a.shape
    width = b.shape[1]
    out = np.zeros((rows, width), dtype=np.uint8)
    for i in range(rows):
        for j in range(inner):
            coeff = int(a[i, j])
            for col in range(width):
                out[i, col] ^= gf256.mul(coeff, int(b[j, col]))
    return out


# -- the product table itself -----------------------------------------------


def test_mul_table_matches_scalar_mul_exhaustively():
    for a in range(256):
        row = gf256.MUL_TABLE[a]
        for b in range(0, 256, 7):
            assert int(row[b]) == gf256.mul(a, b)
    # Full row/column structure: zeros and the identity row.
    assert not gf256.MUL_TABLE[0].any()
    assert not gf256.MUL_TABLE[:, 0].any()
    assert (gf256.MUL_TABLE[1] == np.arange(256, dtype=np.uint8)).all()
    # Commutativity of the field makes the table symmetric.
    assert (gf256.MUL_TABLE == gf256.MUL_TABLE.T).all()


@given(
    scalar=st.integers(0, 255),
    vec=st.binary(min_size=0, max_size=512),
)
def test_mul_vec_matches_logexp_reference(scalar, vec):
    arr = np.frombuffer(vec, dtype=np.uint8)
    expected = mul_vec_reference(scalar, arr)
    got = gf256.mul_vec(scalar, arr)
    assert got.dtype == np.uint8
    assert (got == expected).all()


@given(
    scalar=st.integers(0, 255),
    vec=st.binary(min_size=1, max_size=512),
    acc_seed=st.integers(0, 2**32 - 1),
)
def test_addmul_vec_matches_logexp_reference(scalar, vec, acc_seed):
    arr = np.frombuffer(vec, dtype=np.uint8)
    acc = np.random.default_rng(acc_seed).integers(
        0, 256, size=arr.size, dtype=np.uint8
    )
    expected = acc ^ mul_vec_reference(scalar, arr)
    gf256.addmul_vec(acc, scalar, arr)
    assert (acc == expected).all()


@given(
    rows=st.integers(1, 6),
    inner=st.integers(1, 6),
    width=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50)
def test_matmul_matches_scalar_reference(rows, inner, width, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=(rows, inner), dtype=np.uint8)
    b = rng.integers(0, 256, size=(inner, width), dtype=np.uint8)
    assert (matmul(a, b) == matmul_reference(a, b)).all()


def test_matmul_zero_rows_and_zero_width():
    a = np.zeros((0, 3), dtype=np.uint8)
    b = np.zeros((3, 5), dtype=np.uint8)
    assert matmul(a, b).shape == (0, 5)
    a = np.ones((2, 3), dtype=np.uint8)
    b = np.zeros((3, 0), dtype=np.uint8)
    assert matmul(a, b).shape == (2, 0)


def test_matmul_chunk_boundary_widths():
    from repro.codec.matrix import _MATMUL_CHUNK

    rng = np.random.default_rng(0)
    for width in (_MATMUL_CHUNK - 1, _MATMUL_CHUNK, _MATMUL_CHUNK + 1):
        a = rng.integers(0, 256, size=(2, 3), dtype=np.uint8)
        b = rng.integers(0, 256, size=(3, width), dtype=np.uint8)
        got = matmul(a, b)
        # Row-by-row accumulation is the independent cross-check here.
        expected = np.zeros_like(got)
        for i in range(2):
            for j in range(3):
                gf256.addmul_vec(expected[i], int(a[i, j]), b[j])
        assert (got == expected).all()


# -- cached encode paths ----------------------------------------------------


@given(
    data=st.binary(min_size=0, max_size=4096),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50)
def test_prepare_blocks_bit_identical_to_encode(data, n, seed):
    k = np.random.default_rng(seed).integers(1, n + 1)
    code = ReedSolomonCode(n, int(k))
    full = code.encode(data)
    state = code.prepare(data)
    assert state.blocks() == full
    for index in range(n):
        assert state.block(index) == full[index]
        assert code.encode_block(data, index) == full[index]


@given(data=st.binary(min_size=0, max_size=4096))
@settings(max_examples=25)
def test_pipeline_cached_encode_block_bit_identical(data):
    config = UniDriveConfig(theta=64 * 1024)
    pipeline = BlockPipeline(config, 5, encode_cache_segments=2)
    full = pipeline.code.encode(data)
    # Hit the cache in a scattered order, twice, under eviction pressure.
    for index in list(range(pipeline.n)) + [0, pipeline.n - 1]:
        got = pipeline.encode_block("seg-a", data, index)
        assert got == full[index]
        pipeline.encode_block("seg-b", b"other " + data, 0)
        pipeline.encode_block("seg-c", data + b" other", 0)


def test_reencode_block_matches_single_block():
    code = ReedSolomonCode(10, 3)
    data = np.random.default_rng(7).integers(
        0, 256, size=10_000, dtype=np.uint8
    ).tobytes()
    blocks = code.encode(data)
    subset = {1: blocks[1], 4: blocks[4], 8: blocks[8]}
    for index in range(code.n):
        assert code.reencode_block(subset, index, len(data)) == blocks[index]


def test_decode_roundtrip_after_table_rewrite():
    code = ReedSolomonCode(10, 3)
    for size in (0, 1, 2, 3, 1000):
        data = np.random.default_rng(size).integers(
            0, 256, size=size, dtype=np.uint8
        ).tobytes()
        blocks = code.encode(data)
        assert code.decode({0: blocks[0], 5: blocks[5], 9: blocks[9]},
                           len(data)) == data


# -- the fused wide-width kernel --------------------------------------------


@given(
    c1=st.integers(0, 255),
    c2=st.integers(0, 255),
    b1=st.integers(0, 255),
    b2=st.integers(0, 255),
)
def test_pair_table_fuses_two_multiplies(c1, c2, b1, b2):
    table = gf256.pair_table(c1, c2)
    assert table.shape == (1 << 16,)
    expected = gf256.mul(c1, b1) ^ gf256.mul(c2, b2)
    assert int(table[(b2 << 8) | b1]) == expected


# Widths straddling the dispatch threshold exercise both kernels and
# the exact boundary; the larger ones cross gather-chunk boundaries.
_WIDE = [gfm._FUSED_MIN_WIDTH - 1, gfm._FUSED_MIN_WIDTH,
         gfm._FUSED_MIN_WIDTH + 1, gfm._FUSED_MIN_WIDTH + 4097,
         3 * gfm._FUSED_MIN_WIDTH + 5]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 12),
    inner=st.integers(1, 8),
    width=st.sampled_from(_WIDE),
    seed=st.integers(0, 2**32 - 1),
    kind=st.integers(0, 3),
)
def test_fused_matmul_matches_chunked_reference(rows, inner, width, seed,
                                                kind):
    """The packed pair-table kernel is bit-identical to the reference.

    ``kind`` steers the coefficient matrix through the kernel's
    structural cases: dense random (packed groups), all 0/1 (every row
    is a *simple row*, no gathers at all), all zero, and mixed — a
    ones column plus one 0/1 row, covering the simple-column folding
    and the group/simple split in one matrix.
    """
    rng = np.random.default_rng(seed)
    if kind == 0:
        a = rng.integers(0, 256, size=(rows, inner), dtype=np.uint8)
    elif kind == 1:
        a = rng.integers(0, 2, size=(rows, inner), dtype=np.uint8)
    elif kind == 2:
        a = np.zeros((rows, inner), dtype=np.uint8)
    else:
        a = rng.integers(0, 256, size=(rows, inner), dtype=np.uint8)
        a[:, 0] = 1
        a[rows // 2] = rng.integers(0, 2, size=inner, dtype=np.uint8)
    b = rng.integers(0, 256, size=(inner, width), dtype=np.uint8)
    expected = gfm.matmul_reference(a, b)
    assert (gfm.matmul(a, b) == expected).all()
    # matmul_rows shares the plan and must land the same bytes in a
    # caller-provided output matrix (the in-place encode path).
    out = np.empty((rows, width), dtype=np.uint8)
    got = gfm.matmul_rows(a, [b[j] for j in range(inner)], out)
    assert got is out
    assert (out == expected).all()


def test_narrow_decode_plans_hold_no_pair_tables():
    """A k x k decode matrix is one of the C(n, k) a read cycles through
    (120 for 3-of-10): on small segments its plan gathers one
    coefficient per 256-entry table instead of holding a 64 Ki-entry
    table per column pair (256 KiB per plan).  Wide operands, and the
    encode generator (one per code), keep the pair tables.  Every plan
    stays bit-identical to the reference."""
    code = ReedSolomonCode(10, 3)
    generator = code.generator_matrix
    decode = gfm.invert(generator[[4, 7, 9]])
    narrow = gfm._FUSED_MIN_WIDTH
    plan = gfm._plan_for(decode, narrow)
    assert not plan.pairs and plan.singles == [0, 1, 2]
    assert sum(table.nbytes for tables in plan.single_tables
               for table in tables) <= 4096
    assert gfm._plan_for(decode, gfm._PAIRED_MIN_WIDTH).pairs
    assert gfm._plan_for(generator, narrow).pairs
    rng = np.random.default_rng(5)
    for width in (narrow + 3, gfm._PAIRED_MIN_WIDTH):
        b = rng.integers(0, 256, size=(3, width), dtype=np.uint8)
        for a in (decode, generator):
            assert (gfm.matmul(a, b) == gfm.matmul_reference(a, b)).all()
