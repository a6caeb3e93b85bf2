"""File ⇄ segments ⇄ erasure-coded blocks (paper §6.1).

Upload direction: a file is content-defined-chunked into segments; each
segment is encoded with a non-systematic (n, k) Reed-Solomon code where
``n = max_blocks_per_cloud(k, K_s) * N`` — enough distinct blocks to
feed over-provisioning without ever violating the security cap.

Download direction: any k blocks of each segment reconstruct it; the
segments concatenate (in snapshot order) back into the file.
"""

from __future__ import annotations

import posixpath
import time
from collections import OrderedDict
from typing import Dict, List

import numpy as np

from ..chunking import Segment, Segmenter, SegmentView
from ..codec import EncodeState, ReedSolomonCode
from ..obs import OBS
from .config import UniDriveConfig
from .metadata import SegmentRecord
from .placement import max_block_count

__all__ = ["BlockPipeline", "SyntheticPayload", "block_hash",
           "block_hash_rows", "block_hash_many"]

_LANE_MASK = 0xFFFFFFFFFFFFFFFF
_U8LE = np.dtype("<u8")


def block_hash(block: bytes) -> str:
    """Wrapping 64-bit lane sum plus length — the integrity fingerprint.

    The adversary here is bit rot, not forgery (the same stance ZFS
    takes with its default non-cryptographic scrub checksum), so the
    fingerprint trades collision resistance for memory-bandwidth
    speed: every block rides the download hot path and every one is
    verified, which caps the affordable cost at a few percent of the
    decode wall clock (``tools/bench.py`` reports the cost per block;
    a SHA-1 here measures an order of magnitude more).  The digest
    sums the little-endian 64-bit lanes mod 2**64 and appends the
    byte length: any change
    confined to one lane is always detected (a nonzero delta cannot
    vanish mod 2**64), truncation and padding games are caught by the
    length, and independent multi-lane rot escapes with probability
    ~2**-64.  Lane-permuting corruptions are the blind spot — a
    failure mode bit rot does not produce.
    """
    size = len(block)
    full = size & ~7
    total = 0
    if full:
        # The cached dtype object skips np.frombuffer's per-call
        # dtype-string parse — this function runs once per fetched
        # block, so even sub-microsecond per-call costs are measurable
        # in the verify-overhead budget.
        lanes = np.frombuffer(block, _U8LE, full >> 3)
        total = int(np.add.reduce(lanes))
    if size > full:
        # The ragged tail, zero-extended to a full lane — same value
        # padding with b"\\0" would produce, without copying the block.
        total += int.from_bytes(block[full:], "little")
    return f"{total & _LANE_MASK:016x}{size:08x}"


def block_hash_rows(rows: np.ndarray, size: int) -> List[str]:
    """Batched :func:`block_hash` over the rows of a 2-D uint8 matrix.

    ``rows`` must be C-contiguous with a multiple-of-8 width whose
    columns beyond ``size`` are zero (the natural shape of an encoded
    segment matrix, whose shard padding survives GF(256) encoding as
    zeros).  One ``np.add.reduce`` fingerprints every row; digests are
    identical to ``block_hash(row[:size].tobytes())``.
    """
    lanes = rows.view("<u8")
    totals = np.add.reduce(lanes, axis=1, dtype=np.uint64)
    return [f"{int(total):016x}{size:08x}" for total in totals]


def block_hash_many(blocks: List[bytes]) -> List[str]:
    """:func:`block_hash` of several blocks in one batched reduction.

    Equal-length blocks (the overwhelmingly common case: all blocks of
    a segment share one size) are packed into a single zero-padded
    matrix and fingerprinted by one axis-1 reduction; ragged inputs
    fall back to the scalar path per block.  Digests are identical to
    mapping :func:`block_hash` either way.
    """
    if not blocks:
        return []
    size = len(blocks[0])
    if any(len(block) != size for block in blocks):
        return [block_hash(block) for block in blocks]
    width = -(-max(size, 1) // 8) * 8
    stacked = np.zeros((len(blocks), width), dtype=np.uint8)
    for row, block in enumerate(blocks):
        stacked[row, :size] = np.frombuffer(block, dtype=np.uint8)
    return block_hash_rows(stacked, size)

class SyntheticPayload:
    """Size-only stand-in for segment bytes (fleet-scale trials).

    A million-user trial moves terabytes of *simulated* payload; at
    ~25 MB/s of host-side chunk+encode throughput the data plane — not
    the event kernel — is what makes that population unreachable
    (profiling a 40-user trial puts >80% of wall time in content
    chunking of random bytes whose values nothing ever reads back).
    Upload paths that receive a ``SyntheticPayload`` skip chunking and
    GF(256) encoding entirely and emit zero-filled blocks of the exact
    coded sizes, so the simulated transfer timings, retry behavior and
    traffic accounting are produced by the same scheduler/engine code
    while the host does O(1) work per block.  Content-addressed
    features (dedup, delta sync, integrity verification) are
    meaningless for synthetic payloads — the mode is for upload-only
    population studies, never for the figure-grade paths.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        if nbytes < 0:
            raise ValueError(f"negative payload size {nbytes}")
        self.nbytes = int(nbytes)

    def __len__(self) -> int:
        return self.nbytes

    def __repr__(self) -> str:
        return f"SyntheticPayload({self.nbytes})"


#: The zero bytes every synthetic block is a read-only prefix view of:
#: one buffer, grown on demand, shared across schedulers and stores.
_ZEROS = memoryview(b"")


def _zero_block(size: int) -> memoryview:
    global _ZEROS
    if size > len(_ZEROS):
        _ZEROS = memoryview(bytes(max(size, 2 * len(_ZEROS))))
    return _ZEROS[:size]


#: Segments whose padded shard matrices stay resident.  Each entry costs
#: ~theta bytes (4 MB at the paper default); schedulers touch segments
#: roughly in file order, so a handful of entries absorbs nearly every
#: repeat encode of a batch.
DEFAULT_ENCODE_CACHE_SEGMENTS = 8


class BlockPipeline:
    """Transform between file bytes and cloud block files.

    Semantically a pure function of its inputs; internally it keeps a
    small LRU of per-segment :class:`~repro.codec.EncodeState` objects
    so that producing the i-th block of a segment does not re-pad and
    re-copy the whole segment for every block (see :meth:`encode_block`).
    """

    def __init__(self, config: UniDriveConfig, n_clouds: int,
                 encode_cache_segments: int = DEFAULT_ENCODE_CACHE_SEGMENTS):
        config.validate(n_clouds)
        self.config = config
        self.n_clouds = n_clouds
        self.segmenter = Segmenter(theta=config.theta)
        self.n = max_block_count(config.k_blocks, config.k_security, n_clouds)
        self.k = config.k_blocks
        self.code = ReedSolomonCode(self.n, self.k, systematic=False)
        self._encode_cache: "OrderedDict[str, EncodeState]" = OrderedDict()
        self._encode_cache_segments = max(1, encode_cache_segments)

    # -- encode ------------------------------------------------------------

    def segment_file(self, content: bytes) -> List[Segment]:
        """Content-defined segmentation with stable IDs (dedup keys)."""
        return self.segmenter.split(content)

    def ingest_file(self, content: bytes) -> List[SegmentView]:
        """Zero-copy segmentation: same cuts and IDs as
        :meth:`segment_file`, but each segment's data is a read-only
        view of ``content`` — the fused upload path chunks, hashes and
        encodes without ever materializing per-segment ``bytes``.
        """
        return self.segmenter.split_views(content)

    def make_record(self, segment: Segment) -> SegmentRecord:
        """Metadata record for a (new) segment; locations start empty."""
        return SegmentRecord(
            segment_id=segment.segment_id,
            size=segment.size,
            n=self.n,
            k=self.k,
        )

    def encode_segment(self, segment: Segment) -> List[bytes]:
        """All ``n`` parity blocks of a segment (immutable once created)."""
        return self.code.encode(segment.data)

    def encode_state(self, segment_id: str, data: bytes) -> EncodeState:
        """The cached per-segment encoding state, building it on a miss.

        Segment content is immutable and content-addressed (the id is
        the SHA-1 of the data), so cache entries can never go stale.
        """
        state = self._encode_cache.get(segment_id)
        if state is None:
            if OBS.enabled:
                # Encoding is host CPU work, not simulated time: the span
                # sits at the tracer clock (zero sim width) and carries
                # the wall-clock cost as an attribute instead.
                span, _ = OBS.begin(
                    "encode", track="codec",
                    seg=segment_id[:12], bytes=len(data),
                )
                wall = time.perf_counter()
                state = self.code.prepare(data)
                OBS.encoded(span, (time.perf_counter() - wall) * 1e3)
            else:
                state = self.code.prepare(data)
            self._encode_cache[segment_id] = state
            while len(self._encode_cache) > self._encode_cache_segments:
                self._encode_cache.popitem(last=False)
        else:
            if OBS.enabled:
                OBS.inc("encode_cache", result="hit")
            self._encode_cache.move_to_end(segment_id)
        return state

    def release(self, segment_ids) -> None:
        """Drop the cached encode states of ``segment_ids``.

        The cache serves the repeat encodes within one upload batch; the
        scheduler releases a batch's segments when it ends, so their
        encoded matrices do not stay resident across rounds.
        """
        for segment_id in segment_ids:
            self._encode_cache.pop(segment_id, None)

    def encode_block(self, segment_id: str, data: bytes, index: int):
        """Block ``index`` of a segment via the shard cache.

        The hot path for the upload schedulers: the padded shard matrix
        is built once per segment, the first block request encodes all
        ``n`` rows in one fused matmul, and every block is then a slice
        of the cached encoded matrix.  A :class:`SyntheticPayload`'s
        block is a read-only ``memoryview`` of zeros.
        """
        if type(data) is SyntheticPayload:
            return _zero_block(self.code.shard_size(data.nbytes))
        return self.encode_state(segment_id, data).block(index)

    def encode_block_with_digest(self, segment_id: str, data,
                                 index: int) -> tuple:
        """``(block bytes, fingerprint)`` for one block of a segment.

        The fused upload path: digests for *all* blocks of the segment
        come from one batched reduction over the cached encoded matrix
        (:func:`block_hash_rows` — the pad columns are zero by the
        codec's shard-padding invariant), computed once per segment and
        cached on the encode state.  ``data`` may be bytes, a uint8
        segment view, or a :class:`SyntheticPayload` (zero blocks and
        their constant fingerprint, no matrix ever built).
        """
        if type(data) is SyntheticPayload:
            size = self.code.shard_size(data.nbytes)
            return _zero_block(size), f"{0:016x}{size:08x}"
        state = self.encode_state(segment_id, data)
        if state.digests is None:
            state.digests = block_hash_rows(state.matrix(),
                                            state.shard_bytes)
        return state.block(index), state.digests[index]

    def block_path(self, segment_id: str, index: int) -> str:
        """Cloud-side path of one block file: the segment ID and the
        block's index, under the blocks folder."""
        return posixpath.join(self.config.blocks_dir, f"{segment_id}.{index}")

    def block_size(self, record: SegmentRecord) -> int:
        """Exact byte length every block of a segment must have.

        Shallow scrub audits compare cloud-reported sizes against this
        without downloading anything.
        """
        return self.code.shard_size(record.size)

    # -- decode ------------------------------------------------------------

    def decode_segment(self, record: SegmentRecord,
                       blocks: Dict[int, bytes]) -> bytes:
        """Reconstruct one segment from any k of its blocks."""
        return self.code.decode(blocks, record.size)

    def assemble_file(self, segment_contents: List[bytes]) -> bytes:
        """Concatenate decoded segments in snapshot order."""
        return b"".join(segment_contents)
