"""Content-defined chunking substrate (LBFS-style segmentation)."""

from .rolling_hash import DEFAULT_WINDOW, BuzHash, buzhash_all
from .segmenter import Segment, Segmenter, SegmentView, segment_ids

__all__ = [
    "BuzHash",
    "DEFAULT_WINDOW",
    "Segment",
    "SegmentView",
    "Segmenter",
    "buzhash_all",
    "segment_ids",
]
