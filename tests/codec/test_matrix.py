"""Tests for GF(256) matrix algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec import matrix as gfm


def test_identity():
    eye = gfm.identity(3)
    assert eye.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_matmul_identity_is_noop():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=(4, 7), dtype=np.uint8)
    assert np.array_equal(gfm.matmul(gfm.identity(4), a), a)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        gfm.matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))


def test_invert_identity():
    assert np.array_equal(gfm.invert(gfm.identity(5)), gfm.identity(5))


def test_invert_non_square_rejected():
    with pytest.raises(ValueError):
        gfm.invert(np.zeros((2, 3), np.uint8))


def test_invert_singular_raises():
    singular = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    with pytest.raises(gfm.SingularMatrixError):
        gfm.invert(singular)


def test_invert_requires_row_swap():
    # Zero pivot in the first column forces a row exchange.
    m = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    inv = gfm.invert(m)
    assert np.array_equal(gfm.matmul(m, inv), gfm.identity(2))


@settings(max_examples=30, deadline=None)
@given(arrays(np.uint8, (4, 4), elements=st.integers(0, 255)))
def test_invert_roundtrip_random(m):
    try:
        inv = gfm.invert(m)
    except gfm.SingularMatrixError:
        return
    assert np.array_equal(gfm.matmul(m, inv), gfm.identity(4))
    assert np.array_equal(gfm.matmul(inv, m), gfm.identity(4))


def test_vandermonde_shape_and_first_column():
    v = gfm.vandermonde(6, 3)
    assert v.shape == (6, 3)
    assert all(v[i, 0] == 1 for i in range(6))


def test_vandermonde_any_k_rows_invertible():
    import itertools

    v = gfm.vandermonde(8, 3)
    for rows in itertools.combinations(range(8), 3):
        sub = v[list(rows)]
        inv = gfm.invert(sub)  # must not raise
        assert np.array_equal(gfm.matmul(sub, inv), gfm.identity(3))


def test_vandermonde_too_many_rows():
    with pytest.raises(ValueError):
        gfm.vandermonde(256, 3)


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
    b = rng.integers(0, 256, size=(4, 5), dtype=np.uint8)
    c = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
    left = gfm.matmul(gfm.matmul(a, b), c)
    right = gfm.matmul(a, gfm.matmul(b, c))
    assert np.array_equal(left, right)


def scribble_scratch(rng):
    """Overwrite every buffer of the fused kernel's module-level scratch
    with random bytes, as another client's product would leave it."""
    buffers = [gfm._IDX16_SCRATCH, gfm._IDX_SCRATCH,
               *gfm._PACKED_SCRATCH.values(), *gfm._ACC_SCRATCH.values()]
    for buffer in buffers:
        raw = buffer.reshape(-1).view(np.uint8)
        raw[:] = rng.integers(0, 256, size=raw.size, dtype=np.uint8)


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=12),  # rows
        st.integers(min_value=1, max_value=10),  # inner
        st.integers(min_value=4096, max_value=12_000),  # width
        st.integers(min_value=0, max_value=2 ** 32 - 1),  # seed
    ),
    min_size=2, max_size=4,
))
def test_fused_kernel_reads_no_stale_scratch(shapes):
    # The scratch is shared by every client in the process.  With it
    # full of garbage before each product, over widths that first grow
    # the buffers and then use a prefix of them, the fused kernel (via
    # matmul and matmul_rows) still equals the reference product.
    ordered = sorted(shapes, key=lambda shape: shape[2])
    for rows, inner, width, seed in ordered + ordered[::-1]:
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(rows, inner), dtype=np.uint8)
        # Some 0/1-only columns and rows: the kernel's simple paths.
        a[:, rng.random(inner) < 0.3] %= 2
        a[rng.random(rows) < 0.2] %= 2
        b = rng.integers(0, 256, size=(inner, width), dtype=np.uint8)
        expected = gfm.matmul_reference(a, b)
        scribble_scratch(rng)
        assert np.array_equal(gfm.matmul(a, b), expected)
        scribble_scratch(rng)
        assert np.array_equal(gfm.matmul_rows(a, list(b)), expected)
