"""Streaming reduction for fleet-scale campaigns.

A million-user trial emits ~10^7 per-upload records; materializing them
as dataclass lists is what capped the population axis (the 272-user
figure configurations are fine, 10^6 users are not).  This module
defines the *reducer algebra* the campaign runner threads through every
harness: a reducer folds a stream of items into a state, states merge
associatively in cell-submission order, and a finalize step turns the
merged state into the caller-facing result.

Protocol (duck-typed; subclass :class:`Reducer` for the defaults)::

    state = reducer.init()
    state = reducer.absorb(state, item)      # once per emitted item
    state = reducer.merge(state, other)      # fold per-cell states,
                                             # in submission order
    result = reducer.finalize(state)

Laws the property suite (``tests/workloads/test_reduction.py``) pins:

* **streaming == materialize-then-aggregate** — absorbing items one by
  one as they are produced gives a state byte-identical to collecting
  the items in a list first and absorbing them afterwards (absorb is a
  pure fold; nothing may depend on *when* an item arrives);
* **partition invariance** — ``finalize(merge(fold(p1), fold(p2)))``
  depends only on the concatenation order ``p1 + p2``, never on which
  worker or chunk produced a partition.  The parallel runner always
  merges in submission order, so worker counts and chunk sizes cannot
  change results.

Reducers must be picklable (they ride into worker processes once, via
the pool initializer) and their states must be picklable (they ride
back, once per cell — a fixed-size aggregate instead of an unbounded
record list, which is where the memory win comes from).
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Callable, Dict, List, Optional

from ..obs.timeseries import LogHist

__all__ = [
    "Reducer",
    "MaterializeReducer",
    "CountReducer",
    "SummaryReducer",
    "ReservoirSample",
]


class Reducer:
    """Base reducer: identity fold over a list (subclass and override)."""

    def init(self) -> Any:
        return []

    def absorb(self, state: Any, item: Any) -> Any:
        state.append(item)
        return state

    def merge(self, state: Any, other: Any) -> Any:
        state.extend(other)
        return state

    def finalize(self, state: Any) -> Any:
        return state


class MaterializeReducer(Reducer):
    """The trivial reducer: keep every item, in arrival order.

    This is the reference point for the reduction laws — any reducer
    ``R`` must satisfy ``R.finalize(fold(R, items)) ==
    R.finalize(fold_over(MaterializeReducer-collected items))`` — and
    the drop-in for callers that still want full record lists.
    """


class CountReducer(Reducer):
    """Counts items (and successes, when items carry ``succeeded``)."""

    def init(self):
        return [0, 0]  # [count, succeeded]

    def absorb(self, state, item):
        state[0] += 1
        if getattr(item, "succeeded", False):
            state[1] += 1
        return state

    def merge(self, state, other):
        state[0] += other[0]
        state[1] += other[1]
        return state

    def finalize(self, state):
        return {"count": state[0], "succeeded": state[1]}


class ReservoirSample:
    """Deterministic fixed-capacity sample of a stream.

    Algorithm R with the "random" slot drawn from ``crc32(count)`` —
    no global RNG, so the sample is a pure function of the item
    sequence (required by the reduction laws; a seeded RNG would make
    merge order observable through shared generator state).
    """

    __slots__ = ("capacity", "kept", "count")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.kept: List[Any] = []
        self.count = 0

    def add(self, item: Any) -> None:
        index = self.count
        self.count = index + 1
        if len(self.kept) < self.capacity:
            self.kept.append(item)
            return
        slot = zlib.crc32(b"%d" % index) % (index + 1)
        if slot < self.capacity:
            self.kept[slot] = item

    def update(self, other: "ReservoirSample") -> None:
        """Fold another reservoir in (deterministic, order-sensitive).

        Replays the other side's kept items through the same rule at
        their post-concatenation indices; a thinned approximation of
        the single-stream reservoir, but exactly reproducible for any
        fixed partition sequence.
        """
        base = self.count
        for offset, item in enumerate(other.kept):
            index = base + offset
            self.count = index + 1
            if len(self.kept) < self.capacity:
                self.kept.append(item)
                continue
            slot = zlib.crc32(b"%d" % index) % (index + 1)
            if slot < self.capacity:
                self.kept[slot] = item
        self.count = base + other.count

    def __eq__(self, other):
        return (isinstance(other, ReservoirSample)
                and self.capacity == other.capacity
                and self.kept == other.kept
                and self.count == other.count)

    def __repr__(self):
        return (f"ReservoirSample(capacity={self.capacity}, "
                f"count={self.count})")


def _default_key(item: Any):
    """Grouping key for probe/transfer samples: who, which way, how big."""
    who = getattr(item, "cloud_id", None)
    if who is None:
        who = getattr(item, "approach", None)
    if who is None:
        who = type(item).__name__
    return (who, getattr(item, "direction", "-"), getattr(item, "size", 0))


class SummaryReducer(Reducer):
    """Fixed-size per-key summary of probe/transfer sample streams.

    For each ``(cloud-or-approach, direction, size)`` key it keeps
    count, successes, duration sum/min/max and a log histogram — a few
    hundred bytes per key regardless of how many samples a campaign
    emits.  ``finalize`` returns ``{key: summary dict}``.
    """

    def __init__(self, key: Optional[Callable[[Any], Any]] = None):
        self.key = key or _default_key

    def init(self):
        return {}

    def absorb(self, state, item):
        entry = state.get(self.key(item))
        if entry is None:
            entry = [0, 0, 0.0, math.inf, -math.inf, LogHist()]
            state[self.key(item)] = entry
        entry[0] += 1
        duration = getattr(item, "duration", None)
        if getattr(item, "succeeded", False) and duration is not None:
            entry[1] += 1
            entry[2] += duration
            if duration < entry[3]:
                entry[3] = duration
            if duration > entry[4]:
                entry[4] = duration
        entry[5].add(duration)
        return state

    def merge(self, state, other):
        for key, right in other.items():
            left = state.get(key)
            if left is None:
                state[key] = right
                continue
            left[0] += right[0]
            left[1] += right[1]
            left[2] += right[2]
            if right[3] < left[3]:
                left[3] = right[3]
            if right[4] > left[4]:
                left[4] = right[4]
            left[5].update(right[5])
        return state

    def finalize(self, state) -> Dict[Any, Dict[str, Any]]:
        out = {}
        for key, (count, ok, total, lo, hi, hist) in state.items():
            out[key] = {
                "count": count,
                "success_rate": ok / count if count else 0.0,
                "avg": total / ok if ok else None,
                "min": lo if ok else None,
                "max": hi if ok else None,
                "histogram": hist,
            }
        return out
