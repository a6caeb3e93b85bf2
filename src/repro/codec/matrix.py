"""Dense matrix algebra over GF(2^8).

Matrices are ``numpy.uint8`` 2-D arrays.  Only the operations a
Reed-Solomon codec needs are provided: multiplication, Gauss-Jordan
inversion, and Vandermonde construction.

Two multiplication kernels coexist:

* :func:`matmul_reference` — the chunked single-coefficient
  ``MUL_TABLE`` row-gather kernel, retained as the property-tested
  reference and used directly for small operands.
* the fused tiled kernel behind :func:`matmul` — wide products go
  through a cached :class:`_FusedPlan` that gathers through
  coefficient-*pair* tables (two multiplies per gather, see
  :func:`repro.codec.gf256.pair_table`; a square decode matrix on
  narrow operands gathers one coefficient per 256-entry table
  instead) packed up to eight output rows deep into one gather word
  (``uint64`` down to ``uint8``, sized to the rows that actually need
  gathers), so one pass over the input bytes feeds a whole group of
  output rows.  Rows whose coefficients are all 0/1 never enter a
  gather group at all — they are built from plain XORs of the input
  rows.  Bit-identical to the reference by
  construction and by the equivalence suite in
  ``tests/codec/test_table_equivalence.py``.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from typing import List, Optional, Sequence

import numpy as np

from . import gf256

__all__ = [
    "SingularMatrixError",
    "identity",
    "matmul",
    "matmul_reference",
    "matmul_rows",
    "invert",
    "vandermonde",
]


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is singular."""


def identity(n: int) -> np.ndarray:
    """The n-by-n identity matrix over GF(256)."""
    return np.eye(n, dtype=np.uint8)


# Column chunk of the matmul kernel: small enough that the gather
# scratch and the output slice stay cache-resident between passes.
_MATMUL_CHUNK = 1 << 16
_SCRATCH = np.empty(_MATMUL_CHUNK, dtype=np.uint8)


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chunked single-coefficient matmul — the reference kernel.

    Each output row is ``XOR_j MUL_TABLE[a[i, j]][b[j]]`` — one
    single-row gather through :data:`repro.codec.gf256.MUL_TABLE` per
    coefficient (no log/exp double lookup, no zero-element fixup pass:
    the table maps zeros to zeros), computed in cache-sized column
    chunks so the scratch buffer never leaves L2.  The fused kernel
    behind :func:`matmul` must stay bit-identical to this one.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    rows, inner = a.shape
    width = b.shape[1]
    out = np.zeros((rows, width), dtype=np.uint8)
    if inner == 0 or width == 0 or rows == 0:
        return out
    mul = gf256.MUL_TABLE
    for i in range(rows):
        coeffs = a[i]
        out_row = out[i]
        for start in range(0, width, _MATMUL_CHUNK):
            end = min(start + _MATMUL_CHUNK, width)
            acc = out_row[start:end]
            np.take(mul[coeffs[0]], b[0, start:end], out=acc)
            scratch = _SCRATCH[: end - start]
            for j in range(1, inner):
                np.take(mul[coeffs[j]], b[j, start:end], out=scratch)
                np.bitwise_xor(acc, scratch, out=acc)
    return out


# -- fused tiled kernel ------------------------------------------------------

# Below this operand width the fused kernel's fixed costs (index
# precasts, plan lookup) dominate; the reference kernel is used instead.
_FUSED_MIN_WIDTH = 1 << 12

# Most output rows packed per gather word (one uint64 = 8 byte lanes).
_PACK = 8


def _pack_dtype(count: int) -> np.dtype:
    """Narrowest unsigned dtype with at least ``count`` byte lanes."""
    if count <= 1:
        return np.dtype(np.uint8)
    if count <= 2:
        return np.dtype(np.uint16)
    if count <= 4:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


# packed lane -> byte position inside the gather word (little-endian
# hosts store lane s at byte s; big-endian hosts mirror it).
if sys.byteorder == "little":
    def _lane_byte(lane: int, word_bytes: int) -> int:
        return lane
else:  # pragma: no cover - exercised only on big-endian hosts
    def _lane_byte(lane: int, word_bytes: int) -> int:
        return word_bytes - 1 - lane


class _FusedPlan:
    """Precompiled gather tables for one coefficient matrix.

    Construction splits both dimensions by coefficient structure:

    * *simple* columns — every coefficient is 0 or 1 — contribute via
      plain XOR of the input row; they never enter a gather table.
    * rows whose coefficients are all 0 or 1 across *every* column
      (e.g. the ``[1, 1, ..., 1]`` first Vandermonde row) are *simple
      rows*: their output is the XOR of their 1-coefficient input
      rows, no gather at all.
    * the other rows are packed into gather groups of up to eight.
      In a *paired* plan each general-column pair gets, per group, a
      65536-entry table packing the rows' :func:`gf256.pair_table`
      values one per byte lane of the group's word dtype (``uint64``
      for 8 lanes, down to ``uint8`` for a lone row — the narrowest
      word that fits keeps the table cache-resident).  A single gather
      then advances the whole group by two coefficients.
    * every other general column — an odd one left over, or each
      column of an unpaired plan — gets 256-entry packed tables of
      the same shape.

    :func:`_plan_for` pairs the plans of matrices with more rows than
    columns (an encode generator, one per code) and the plans of
    operands at least :data:`_PAIRED_MIN_WIDTH` wide.  A code has
    C(n, k) square decode matrices (120 for the default 3-of-10) and a
    read of small segments cycles through as many as its blocks'
    clouds combine: a pair table made each of their plans 256 KiB, for
    one gather fewer per decode.

    ``apply`` runs one gather per (pair or single column, group),
    XOR-accumulates the packed words, deinterleaves each byte lane
    once, and folds the simple-column XORs in as contiguous word-wide
    passes.
    """

    __slots__ = ("rows", "inner", "pairs", "singles", "ones_cols",
                 "simple_rows", "groups", "pair_tables",
                 "single_tables")

    def __init__(self, a: np.ndarray, paired: bool):
        rows, inner = a.shape
        self.rows = rows
        self.inner = inner
        simple = [j for j in range(inner) if np.all(a[:, j] <= 1)]
        general = [j for j in range(inner) if j not in set(simple)]
        paired = len(general) - len(general) % 2 if paired else 0
        self.pairs = [
            (general[i], general[i + 1]) for i in range(0, paired, 2)
        ]
        self.singles = general[paired:]
        #: per output row, the simple columns whose coefficient is 1.
        self.ones_cols = [
            [j for j in simple if a[i, j] == 1] for i in range(rows)
        ]
        #: rows with no coefficient above 1 anywhere need no gather —
        #: (row, xor columns) pairs covering *all* their 1-columns.
        self.simple_rows = [
            (i, [j for j in range(inner) if a[i, j] == 1])
            for i in range(rows) if np.all(a[i] <= 1)
        ]
        packed = [
            i for i in range(rows) if not np.all(a[i] <= 1)
        ]
        self.groups = []
        pos = 0
        while len(packed) - pos > _PACK:
            self.groups.append(
                (tuple(packed[pos:pos + _PACK]), _pack_dtype(_PACK))
            )
            pos += _PACK
        if pos < len(packed):
            rest = packed[pos:]
            self.groups.append((tuple(rest), _pack_dtype(len(rest))))
        self.pair_tables = []
        self.single_tables = []
        for grows, dt in self.groups:
            word = dt.itemsize
            per_pair = []
            for j1, j2 in self.pairs:
                table = np.zeros(1 << 16, dtype=dt)
                for s, r in enumerate(grows):
                    pair = gf256.pair_table(int(a[r, j1]), int(a[r, j2]))
                    table |= (pair.astype(dt)
                              << dt.type(8 * _lane_byte(s, word)))
                per_pair.append(table)
            self.pair_tables.append(per_pair)
            per_single = []
            for j in self.singles:
                table = np.zeros(256, dtype=dt)
                for s, r in enumerate(grows):
                    row = gf256.MUL_TABLE[int(a[r, j])]
                    table |= (row.astype(dt)
                              << dt.type(8 * _lane_byte(s, word)))
                per_single.append(table)
            self.single_tables.append(per_single)

    def apply(self, b_rows: Sequence[np.ndarray],
              out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (``(rows, width)`` uint8) with the product.

        ``b_rows`` is a sequence of ``inner`` equal-length 1-D uint8
        arrays — accepting separate rows lets decode feed
        ``frombuffer`` views of the received blocks without stacking
        them into a contiguous matrix first.

        Pairs form the outer loop so a single reused index buffer
        serves every gather; pair and leftover passes XOR-accumulate
        into per-group packed word accumulators (contiguous word-wide
        XORs), so the strided byte-lane deinterleave runs exactly once
        per output row.  The deinterleave is a strided *copy* followed
        by contiguous XORs of the simple columns — measurably cheaper
        than XOR-ing through the strided view.  All working buffers
        live in module-level scratch (grown on demand, never shrunk)
        because faulting fresh multi-megabyte mappings per call costs
        as much as the gathers themselves.  Sharing that scratch across
        clients is safe: ``apply`` never yields, and it writes every
        buffer before reading it.
        """
        width = out.shape[1]
        dtypes = [dt for _, dt in self.groups]
        idx16, idx, acc = _apply_scratch(width, dtypes)
        for pi, (j1, j2) in enumerate(self.pairs):
            # Gather index = 16-bit concatenation of the two input
            # bytes, precast to the platform index dtype once: np.take
            # re-casts uint8/uint16 indices on every call, which would
            # otherwise dominate the gathers.
            np.copyto(idx16, b_rows[j2])
            idx16 <<= 8
            np.bitwise_or(idx16, b_rows[j1], out=idx16)
            np.copyto(idx, idx16)
            for gi, dt in enumerate(dtypes):
                if pi == 0:
                    np.take(self.pair_tables[gi][pi], idx,
                            out=acc[gi], mode="clip")
                else:
                    packed = _packed_scratch(width, dt)
                    np.take(self.pair_tables[gi][pi], idx,
                            out=packed, mode="clip")
                    np.bitwise_xor(acc[gi], packed, out=acc[gi])
        for si, j in enumerate(self.singles):
            np.copyto(idx, b_rows[j])
            for gi, dt in enumerate(dtypes):
                if not self.pairs and si == 0:
                    np.take(self.single_tables[gi][si], idx,
                            out=acc[gi], mode="clip")
                else:
                    packed = _packed_scratch(width, dt)
                    np.take(self.single_tables[gi][si], idx,
                            out=packed, mode="clip")
                    np.bitwise_xor(acc[gi], packed, out=acc[gi])
        for gi, (grows, dt) in enumerate(self.groups):
            word = dt.itemsize
            lanes = (
                None if word == 1
                else acc[gi].view(np.uint8).reshape(width, word)
            )
            for s, r in enumerate(grows):
                row = out[r]
                lane = (
                    acc[gi] if lanes is None
                    else lanes[:, _lane_byte(s, word)]
                )
                np.copyto(row, lane)
                for j in self.ones_cols[r]:
                    np.bitwise_xor(row, b_rows[j], out=row)
        for r, cols in self.simple_rows:
            self._init_simple(out[r], cols, b_rows)
        return out

    @staticmethod
    def _init_simple(row: np.ndarray, ones: List[int],
                     b_rows: Sequence[np.ndarray]) -> None:
        if not ones:
            row[:] = 0
            return
        np.copyto(row, b_rows[ones[0]])
        for j in ones[1:]:
            np.bitwise_xor(row, b_rows[j], out=row)


# Reused working buffers for _FusedPlan.apply, grown on demand.  The
# accumulator and pass scratch are keyed by group word dtype (a plan
# uses at most two distinct widths: full uint64 groups plus one
# narrower tail group).
_IDX16_SCRATCH = np.empty(0, dtype=np.uint16)
_IDX_SCRATCH = np.empty(0, dtype=np.intp)
_PACKED_SCRATCH: dict = {}
_ACC_SCRATCH: dict = {}


def _apply_scratch(width: int, dtypes: Sequence[np.dtype]):
    global _IDX16_SCRATCH, _IDX_SCRATCH
    if _IDX16_SCRATCH.size < width:
        _IDX16_SCRATCH = np.empty(width, dtype=np.uint16)
        _IDX_SCRATCH = np.empty(width, dtype=np.intp)
    counts: dict = {}
    for dt in dtypes:
        counts[dt.str] = counts.get(dt.str, 0) + 1
    for key, count in counts.items():
        pool = _ACC_SCRATCH.get(key)
        if pool is None or pool.shape[0] < count or pool.shape[1] < width:
            _ACC_SCRATCH[key] = np.empty(
                (max(count, 0 if pool is None else pool.shape[0]),
                 max(width, 0 if pool is None else pool.shape[1])),
                dtype=np.dtype(key),
            )
    acc = []
    taken: dict = {}
    for dt in dtypes:
        k = taken.get(dt.str, 0)
        taken[dt.str] = k + 1
        acc.append(_ACC_SCRATCH[dt.str][k, :width])
    return _IDX16_SCRATCH[:width], _IDX_SCRATCH[:width], acc


def _packed_scratch(width: int, dt: np.dtype) -> np.ndarray:
    pool = _PACKED_SCRATCH.get(dt.str)
    if pool is None or pool.size < width:
        _PACKED_SCRATCH[dt.str] = pool = np.empty(width, dtype=dt)
    return pool[:width]


# Plans are pure functions of the coefficient matrix and the pairing;
# RS codecs reuse a handful of generator/decode matrices, so a small LRU
# holds them all.
_PLAN_CACHE: "OrderedDict[tuple, _FusedPlan]" = OrderedDict()
_PLAN_CACHE_MAX = 128

#: Operand width from which any plan pairs its columns: a row at least
#: as large as a packed pair table (256 KiB for a 3-row group), which
#: one gather fewer per pair then repays within a few products.
_PAIRED_MIN_WIDTH = 1 << 18


def _plan_for(a: np.ndarray, width: int) -> _FusedPlan:
    paired = a.shape[0] > a.shape[1] or width >= _PAIRED_MIN_WIDTH
    key = (a.shape, a.tobytes(), paired)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _FusedPlan(a, paired)
        _PLAN_CACHE[key] = plan
        if len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    else:
        _PLAN_CACHE.move_to_end(key)
    return plan


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256): ``out[i] = XOR_j a[i,j] * b[j]``.

    Wide operands dispatch to the fused tiled kernel; narrow or
    degenerate ones use :func:`matmul_reference` directly.  Both are
    bit-identical.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    rows, inner = a.shape
    width = b.shape[1]
    if rows == 0 or inner == 0 or width < _FUSED_MIN_WIDTH:
        return matmul_reference(a, b)
    out = np.empty((rows, width), dtype=np.uint8)
    return _plan_for(a, width).apply([b[j] for j in range(inner)], out)


def matmul_rows(a: np.ndarray, b_rows: Sequence[np.ndarray],
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`matmul` over a *sequence* of equal-length input rows.

    Decode feeds ``frombuffer`` views of the received blocks here, so
    the product runs without first stacking them into one contiguous
    matrix.  Rows must be 1-D uint8 and of equal length.
    """
    a = np.asarray(a, dtype=np.uint8)
    rows, inner = a.shape
    if inner != len(b_rows):
        raise ValueError(
            f"matrix has {inner} columns but {len(b_rows)} rows given"
        )
    width = b_rows[0].size if b_rows else 0
    if out is None:
        out = np.empty((rows, width), dtype=np.uint8)
    if rows == 0 or inner == 0 or width < _FUSED_MIN_WIDTH:
        stacked = (
            np.stack(b_rows) if b_rows
            else np.zeros((0, width), dtype=np.uint8)
        )
        out[:] = matmul_reference(a, stacked)
        return out
    return _plan_for(a, width).apply(b_rows, out)


def invert(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    n, m = matrix.shape
    if n != m:
        raise ValueError(f"cannot invert non-square matrix {matrix.shape}")
    # Work in an augmented [A | I] uint8 array; all row operations stay
    # inside GF(256), so uint8 is exact.
    work = np.concatenate([matrix.copy(), identity(n)], axis=1)
    for col in range(n):
        pivot_row = None
        for row in range(col, n):
            if work[row, col] != 0:
                pivot_row = row
                break
        if pivot_row is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
        pivot_inv = gf256.inv(int(work[col, col]))
        work[col] = gf256.mul_vec(pivot_inv, work[col])
        for row in range(n):
            if row != col and work[row, col] != 0:
                gf256.addmul_vec(work[row], int(work[row, col]), work[col])
    return work[:, n:].copy()


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """A rows-by-cols Vandermonde matrix with distinct nonzero points.

    Row ``i`` is ``[x_i^0, x_i^1, ..., x_i^(cols-1)]`` with
    ``x_i = GENERATOR^i``; since the generator has order 255, any
    ``rows <= 255`` yields distinct points and therefore every ``cols``
    rows form an invertible square submatrix — the property Reed-Solomon
    decoding relies on.
    """
    if rows > 255:
        raise ValueError(f"at most 255 distinct points available, got {rows}")
    out = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        x = gf256.pow(gf256.GENERATOR, i)
        for j in range(cols):
            out[i, j] = gf256.pow(x, j)
    return out
