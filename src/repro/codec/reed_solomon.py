"""Reed-Solomon erasure codes over GF(2^8).

UniDrive applies a *non-systematic* (n, k) Reed-Solomon code to each file
segment (paper §6.1): no output block carries plaintext, so no coalition
of fewer than ``K_s`` clouds can reconstruct any part of a file, and any
``k`` of the ``n`` blocks recover the segment exactly.

A systematic variant is also provided; the RACS/DepSky-style
``MultiCloudBenchmark`` baseline uses it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Mapping

import numpy as np

from . import matrix as gfm

__all__ = ["ReedSolomonCode", "EncodeState", "DecodeError"]

#: Decode matrices cached per surviving-cloud index set.  Recovery and
#: rebalancing decode many segments against the *same* few index sets
#: (whichever k clouds answered), so a small LRU removes almost every
#: repeated ``gfm.invert`` — the decode-side mirror of ``prepare()``.
_DECODE_CACHE_SIZE = 64


class DecodeError(ValueError):
    """Raised when the supplied shards cannot reconstruct the data."""


# Scratch matrices for the one-shot :meth:`ReedSolomonCode.encode`
# path, grown on demand and reused across calls.  Encoding a 4 MB
# segment otherwise faults ~18 MB of fresh mappings per call (shard
# matrix + product), which costs as much as the GF(256) kernel itself.
# ``prepare()`` still allocates owned arrays: its state outlives the
# call (the pipeline caches it), so it cannot alias shared scratch.
_ENCODE_SHARDS = np.empty((0, 0), dtype=np.uint8)
_ENCODE_OUT = np.empty((0, 0), dtype=np.uint8)


def _encode_scratch(k: int, n: int, padded_size: int):
    global _ENCODE_SHARDS, _ENCODE_OUT
    if (_ENCODE_SHARDS.shape[0] < k
            or _ENCODE_SHARDS.shape[1] < padded_size):
        _ENCODE_SHARDS = np.empty(
            (max(k, _ENCODE_SHARDS.shape[0]),
             max(padded_size, _ENCODE_SHARDS.shape[1])),
            dtype=np.uint8,
        )
    if _ENCODE_OUT.shape[0] < n or _ENCODE_OUT.shape[1] < padded_size:
        _ENCODE_OUT = np.empty(
            (max(n, _ENCODE_OUT.shape[0]),
             max(padded_size, _ENCODE_OUT.shape[1])),
            dtype=np.uint8,
        )
    return (_ENCODE_SHARDS[:k, :padded_size],
            _ENCODE_OUT[:n, :padded_size])


class EncodeState:
    """Reusable per-segment encoding state: the padded shard matrix.

    Building the ``(k, shard_size)`` shard matrix costs a full pad +
    reshape + copy of the segment.  :meth:`ReedSolomonCode.prepare`
    performs it once; the first block request then encodes *all* ``n``
    rows in one fused-kernel pass over the segment (:meth:`matrix`),
    so producing the blocks of a segment costs one tiled matmul
    instead of ``n`` row-matmuls.  From then on the state holds only
    the encoded matrix.

    The shard matrix is zero-padded to a multiple of 8 columns so the
    encoded matrix can be fingerprinted directly by the batched
    ``block_hash`` (``repro.core.pipeline.block_hash_rows``): GF(256)
    kernels map zero input columns to zero output columns, so the pad
    lanes never perturb the digests.  ``digests`` is a caching slot for
    that fingerprint pass (filled by the pipeline, not here).
    """

    __slots__ = ("code", "shards", "shard_bytes", "_encoded", "digests")

    def __init__(self, code: "ReedSolomonCode", shards: np.ndarray,
                 shard_bytes: int):
        self.code = code
        self.shards = shards
        self.shard_bytes = shard_bytes
        self._encoded = None
        self.digests = None

    def matrix(self) -> np.ndarray:
        """The full ``(n, padded_size)`` encoded matrix, computed once.

        The shard matrix is dropped once encoded: nothing reads it
        afterwards, and a cached state would otherwise hold a second,
        padded copy of its segment.
        """
        if self._encoded is None:
            self._encoded = gfm.matmul(self.code._generator, self.shards)
            self.shards = None
        return self._encoded

    def block(self, index: int) -> bytes:
        """Block ``index`` from the cached encoded matrix."""
        if not 0 <= index < self.code.n:
            raise ValueError(
                f"block index {index} outside [0, {self.code.n})"
            )
        return self.matrix()[index, : self.shard_bytes].tobytes()

    def blocks(self) -> List[bytes]:
        """All ``n`` blocks (equivalent to :meth:`ReedSolomonCode.encode`)."""
        encoded = self.matrix()
        size = self.shard_bytes
        return [encoded[i, :size].tobytes() for i in range(self.code.n)]


class ReedSolomonCode:
    """An (n, k) maximum-distance-separable erasure code.

    Parameters
    ----------
    n:
        Total number of blocks produced per segment (1 <= k <= n <= 255).
    k:
        Number of blocks sufficient (and necessary) for reconstruction.
    systematic:
        When True the first ``k`` blocks are the plain data shards.  The
        default (False) matches UniDrive's security design: every block is
        a nontrivial codeword and leaks no plaintext on its own.
    """

    def __init__(self, n: int, k: int, systematic: bool = False):
        if not 1 <= k <= n <= 255:
            raise ValueError(f"require 1 <= k <= n <= 255, got n={n} k={k}")
        self.n = n
        self.k = k
        self.systematic = systematic
        generator = gfm.vandermonde(n, k)
        if systematic:
            top_inv = gfm.invert(generator[:k])
            generator = gfm.matmul(generator, top_inv)
        self._generator = generator
        self._decode_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    def __repr__(self) -> str:
        kind = "systematic" if self.systematic else "non-systematic"
        return f"ReedSolomonCode(n={self.n}, k={self.k}, {kind})"

    @property
    def generator_matrix(self) -> np.ndarray:
        """A read-only view of the n-by-k generator matrix."""
        view = self._generator.view()
        view.setflags(write=False)
        return view

    def shard_size(self, data_length: int) -> int:
        """Size in bytes of each block for a segment of ``data_length``."""
        if data_length < 0:
            raise ValueError("data_length must be non-negative")
        return max(1, -(-data_length // self.k))

    def _shard_matrix(self, data, scratch: bool = False):
        """The padded ``(k, ceil8(shard_size))`` shard matrix for ``data``.

        ``data`` may be ``bytes`` or a 1-D ``uint8`` array (the fused
        pipeline feeds segment *views* of the file buffer, avoiding an
        intermediate ``bytes`` copy per segment).  Columns are padded to
        a multiple of 8 so digests can later be computed over an exact
        ``<u8`` lane view; the pad stays zero through encoding.

        With ``scratch=True`` the matrix is a view of module scratch —
        valid only until the next scratch-mode call, for the one-shot
        :meth:`encode` path.
        """
        arr = (np.frombuffer(data, dtype=np.uint8)
               if isinstance(data, (bytes, bytearray, memoryview))
               else np.asarray(data, dtype=np.uint8))
        length = arr.size
        size = self.shard_size(length)
        padded_size = -(-size // 8) * 8
        if scratch:
            mat, _ = _encode_scratch(self.k, self.n, padded_size)
            mat[:] = 0
        else:
            mat = np.zeros((self.k, padded_size), dtype=np.uint8)
        for row in range(self.k):
            seg = arr[row * size: min((row + 1) * size, length)]
            if seg.size:
                mat[row, : seg.size] = seg
        return mat, size

    def prepare(self, data) -> EncodeState:
        """Build the shard matrix once for repeated block production.

        Callers that emit several blocks of one segment (the schedulers'
        on-demand path, rebalancing) should prepare once and call
        :meth:`EncodeState.block` per index, instead of paying the full
        pad + reshape + copy inside every :meth:`encode_block`.
        ``data`` may be ``bytes`` or a 1-D ``uint8`` array view.
        """
        shards, size = self._shard_matrix(data)
        return EncodeState(self, shards, size)

    def encode(self, data: bytes) -> List[bytes]:
        """Encode ``data`` into ``n`` equally-sized blocks.

        The original length is *not* embedded; callers persist it in
        metadata (UniDrive stores it in the segment entry) and pass it
        back to :meth:`decode`.

        One-shot: the shard and product matrices live in reused module
        scratch (only the returned ``bytes`` survive the call), so
        repeated encodes never fault fresh multi-megabyte mappings.
        Callers that want the encoded matrix to *persist* use
        :meth:`prepare`.
        """
        shards, size = self._shard_matrix(data, scratch=True)
        _, out = _encode_scratch(self.k, self.n, shards.shape[1])
        encoded = gfm.matmul_rows(
            self._generator, [shards[j] for j in range(self.k)], out
        )
        return [encoded[i, :size].tobytes() for i in range(self.n)]

    def encode_block(self, data: bytes, index: int) -> bytes:
        """Produce only block ``index`` (on-demand over-provisioning).

        The paper notes over-provisioned parity blocks may be generated
        in advance (memory cost) or on demand (latency cost); the
        schedulers use this on-demand path so a large batch never holds
        all ``n`` blocks of every segment in memory.  One-shot: for
        repeated blocks of the same segment use :meth:`prepare`.
        """
        return self.prepare(data).block(index)

    def decode(self, blocks: Mapping[int, bytes], data_length: int) -> bytes:
        """Reconstruct the original data from any ``k`` blocks.

        Parameters
        ----------
        blocks:
            Mapping from block index (0-based position in the encoded
            output) to block content.  Extra blocks beyond ``k`` are
            ignored (the k smallest indices are used).
        data_length:
            Length of the original segment, to strip padding.
        """
        if data_length < 0:
            raise ValueError("data_length must be non-negative")
        if len(blocks) < self.k:
            raise DecodeError(
                f"need at least k={self.k} blocks, got {len(blocks)}"
            )
        indices = sorted(blocks)[: self.k]
        for index in indices:
            if not 0 <= index < self.n:
                raise DecodeError(f"block index {index} outside [0, {self.n})")
        size = self.shard_size(data_length)
        rows = []
        for index in indices:
            content = blocks[index]
            if len(content) != size:
                raise DecodeError(
                    f"block {index} has size {len(content)}, expected {size}"
                )
            rows.append(np.frombuffer(content, dtype=np.uint8))
        # matmul_rows consumes the frombuffer views directly — no
        # stacking copy of the received blocks before the product.
        data_shards = gfm.matmul_rows(
            self._decode_matrix(tuple(indices)), rows,
            np.empty((self.k, size), dtype=np.uint8),
        )
        flat = data_shards.reshape(-1)[:data_length]
        return flat.tobytes()

    def _decode_matrix(self, indices: tuple) -> np.ndarray:
        """The inverse of the generator rows ``indices``, LRU-cached."""
        cache = self._decode_cache
        decode_matrix = cache.get(indices)
        if decode_matrix is not None:
            cache.move_to_end(indices)
            return decode_matrix
        try:
            decode_matrix = gfm.invert(self._generator[list(indices)])
        except gfm.SingularMatrixError as exc:  # pragma: no cover
            raise DecodeError(f"singular decode submatrix: {exc}") from exc
        cache[indices] = decode_matrix
        if len(cache) > _DECODE_CACHE_SIZE:
            cache.popitem(last=False)
        return decode_matrix

    def reencode_block(self, blocks: Mapping[int, bytes], index: int,
                       data_length: int) -> bytes:
        """Regenerate block ``index`` from any k available blocks.

        Used when rebalancing after a cloud is added or removed
        (paper §6.2 "Adding or Removing CCSs").
        """
        data = self.decode(blocks, data_length)
        return self.encode_block(data, index)
