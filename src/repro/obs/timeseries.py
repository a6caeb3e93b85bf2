"""Sim-clock windowed time-series aggregation.

End-of-run metric snapshots (:mod:`repro.obs.metrics`) answer "how much,
in total"; this module answers "how much, *when*".  Observations are
bucketed into fixed-width **tumbling windows** of the virtual clock
(window ``i`` covers ``[i*width, (i+1)*width)``), and a rolling ring
keeps the most recent ``ring`` windows so an always-on service can run
forever in bounded memory.

Per window, three instrument kinds mirror the flat registry:

* **counters** — sums, labelled, merge by addition;
* **gauges** — last-writer-wins *by observation time* (ties resolved
  toward the later submission), so merged snapshots agree with a single
  stream;
* **log histograms** — fixed-size base-2 histograms (:class:`LogHist`,
  shared with the campaign reducers in ``repro/workloads``) with
  approximate quantiles, merging by vector addition.

Snapshots follow the PR-7 reducer laws (see ``repro/workloads/reduce.py``):
absorbing observations one at a time equals batch absorption, and
``merge_window_snapshots([s1, s2, ...])`` over any contiguous partition
of one observation stream equals aggregating the whole stream in one
:class:`TimeSeries` — counters/histograms are commutative sums and sim
time is monotone within a stream, so the parallel campaign runner can
fold per-cell snapshots in submission order without changing a digit.
(Equality assumes no window was evicted, i.e. ``ring`` spans the run.)

Everything here is plain floats/dicts — recording never draws
randomness, never touches the simulator, and snapshots are JSON-safe,
so the zero-overhead/byte-identity contract of the obs layer carries
over unchanged.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .metrics import _render_key, _series_key

__all__ = [
    "LogHist",
    "TimeSeries",
    "merge_window_snapshots",
    "snapshot_percentile",
    "counter_series",
]


class LogHist:
    """Fixed-size base-2 log histogram of positive floats.

    64 buckets spanning ``2**-32 .. 2**32``; under/overflow clamp to the
    end buckets, zero/negative/non-finite observations count as
    ``nulls``.  Merging is vector addition, so histograms satisfy the
    reduction laws trivially.  Counts are kept sparse (dict) because a
    window rarely touches more than a handful of magnitudes.
    """

    __slots__ = ("counts", "nulls", "total", "sum")

    _OFFSET = 32
    _BUCKETS = 64

    def __init__(self):
        self.counts: Dict[int, int] = {}
        self.nulls = 0
        self.total = 0
        self.sum = 0.0

    def add(self, value: Optional[float]) -> None:
        if value is None or value <= 0.0 or not math.isfinite(value):
            self.nulls += 1
            return
        index = self.bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.total += 1
        self.sum += value

    def update(self, other: "LogHist") -> None:
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.nulls += other.nulls
        self.total += other.total
        self.sum += other.sum

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile: geometric midpoint of the q-th bucket."""
        if self.total == 0:
            return None
        want = min(max(q, 0.0), 1.0) * self.total
        seen = 0
        for index in sorted(self.counts):
            n = self.counts[index]
            seen += n
            if seen >= want and n:
                return self.bucket_value(index)
        return self.bucket_value(max(self.counts))  # pragma: no cover

    @classmethod
    def bucket_index(cls, value: float) -> int:
        """The bucket a positive finite value lands in."""
        index = int(math.floor(math.log2(value))) + cls._OFFSET
        return min(max(index, 0), cls._BUCKETS - 1)

    @classmethod
    def bucket_value(cls, index: int) -> float:
        """Geometric midpoint of bucket ``index``."""
        return 2.0 ** (index - cls._OFFSET + 0.5)

    def to_json(self) -> Dict[str, Any]:
        return {
            "counts": {str(i): self.counts[i] for i in sorted(self.counts)},
            "nulls": self.nulls,
            "count": self.total,
            "sum": self.sum,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "LogHist":
        hist = cls()
        hist.counts = {int(i): int(n) for i, n in data.get("counts", {}).items()}
        hist.nulls = int(data.get("nulls", 0))
        hist.total = int(data.get("count", sum(hist.counts.values())))
        hist.sum = float(data.get("sum", 0.0))
        return hist

    def __eq__(self, other):
        return (isinstance(other, LogHist)
                and self.counts == other.counts
                and self.nulls == other.nulls)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"LogHist(total={self.total}, nulls={self.nulls})"


class _Window:
    """One tumbling window's instruments."""

    __slots__ = ("counters", "gauges", "hists")

    def __init__(self):
        self.counters: Dict[tuple, float] = {}
        # key -> (observation time, value); later time (or, at equal
        # times, later submission) wins.
        self.gauges: Dict[tuple, Tuple[float, float]] = {}
        self.hists: Dict[tuple, LogHist] = {}


class TimeSeries:
    """Tumbling-window aggregation over the virtual clock.

    ``width`` is the window size in sim seconds; ``ring`` bounds how
    many recent windows are retained (oldest evicted first).
    """

    def __init__(self, width: float = 60.0, ring: int = 256):
        if width <= 0:
            raise ValueError(f"window width must be positive, got {width}")
        if ring < 1:
            raise ValueError(f"ring must hold at least 1 window, got {ring}")
        self.width = float(width)
        self.ring = int(ring)
        self._windows: Dict[int, _Window] = {}

    # -- recording -------------------------------------------------------

    def _window(self, t: float) -> _Window:
        index = int(math.floor(t / self.width))
        window = self._windows.get(index)
        if window is None:
            window = _Window()
            self._windows[index] = window
            if len(self._windows) > self.ring:
                del self._windows[min(self._windows)]
        return window

    def inc(self, name: str, t: float, value: float = 1.0,
            **labels: Any) -> None:
        counters = self._window(t).counters
        key = _series_key(name, labels)
        counters[key] = counters.get(key, 0.0) + value

    def gauge(self, name: str, t: float, value: float, **labels: Any) -> None:
        gauges = self._window(t).gauges
        key = _series_key(name, labels)
        have = gauges.get(key)
        if have is None or t >= have[0]:
            gauges[key] = (t, value)

    def observe(self, name: str, t: float, value: float,
                **labels: Any) -> None:
        hists = self._window(t).hists
        key = _series_key(name, labels)
        hist = hists.get(key)
        if hist is None:
            hist = LogHist()
            hists[key] = hist
        hist.add(value)

    # -- reads -----------------------------------------------------------

    def window_indices(self) -> List[int]:
        return sorted(self._windows)

    def counter_value(self, name: str, window: int, **labels: Any) -> float:
        win = self._windows.get(window)
        if win is None:
            return 0.0
        return win.counters.get(_series_key(name, labels), 0.0)

    def percentile(self, name: str, q: float, window: Optional[int] = None,
                   **labels: Any) -> Optional[float]:
        """Quantile of ``name`` in one window (or pooled over all)."""
        key = _series_key(name, labels)
        if window is not None:
            win = self._windows.get(window)
            hist = None if win is None else win.hists.get(key)
            return None if hist is None else hist.quantile(q)
        pooled = LogHist()
        for win in self._windows.values():
            hist = win.hists.get(key)
            if hist is not None:
                pooled.update(hist)
        return pooled.quantile(q)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view, deterministically ordered."""
        windows: Dict[str, Any] = {}
        for index in sorted(self._windows):
            win = self._windows[index]
            windows[str(index)] = {
                "t0": index * self.width,
                "counters": {
                    _render_key(k): win.counters[k]
                    for k in sorted(win.counters, key=_render_key)
                },
                "gauges": {
                    _render_key(k): list(win.gauges[k])
                    for k in sorted(win.gauges, key=_render_key)
                },
                "histograms": {
                    _render_key(k): win.hists[k].to_json()
                    for k in sorted(win.hists, key=_render_key)
                },
            }
        return {"width": self.width, "ring": self.ring, "windows": windows}


def merge_window_snapshots(
    snapshots: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold per-cell window snapshots, in submission order.

    Counters and histograms sum; gauges keep the observation with the
    latest time (ties toward the later snapshot).  Widths must agree —
    windows of different size are not comparable.  The result trims to
    the largest ``ring`` seen, evicting the oldest windows, exactly as
    a single live :class:`TimeSeries` would have.
    """
    width: Optional[float] = None
    ring = 1
    merged: Dict[int, Dict[str, Any]] = {}
    for snap in snapshots:
        if not snap:
            continue
        if width is None:
            width = snap["width"]
        elif snap["width"] != width:
            raise ValueError(
                f"window width mismatch: {snap['width']} != {width}"
            )
        ring = max(ring, int(snap.get("ring", 1)))
        for index_str, win in snap.get("windows", {}).items():
            index = int(index_str)
            have = merged.get(index)
            if have is None:
                merged[index] = {
                    "t0": win["t0"],
                    "counters": dict(win.get("counters", {})),
                    "gauges": {
                        k: list(v) for k, v in win.get("gauges", {}).items()
                    },
                    "histograms": {
                        k: LogHist.from_json(h).to_json()
                        for k, h in win.get("histograms", {}).items()
                    },
                }
                continue
            counters = have["counters"]
            for key, value in win.get("counters", {}).items():
                counters[key] = counters.get(key, 0.0) + value
            gauges = have["gauges"]
            for key, (t, value) in win.get("gauges", {}).items():
                current = gauges.get(key)
                if current is None or t >= current[0]:
                    gauges[key] = [t, value]
            hists = have["histograms"]
            for key, data in win.get("histograms", {}).items():
                current = hists.get(key)
                if current is None:
                    hists[key] = LogHist.from_json(data).to_json()
                else:
                    left = LogHist.from_json(current)
                    left.update(LogHist.from_json(data))
                    hists[key] = left.to_json()
    if width is None:
        return {"width": None, "ring": ring, "windows": {}}
    for index in sorted(merged)[:-ring] if len(merged) > ring else []:
        del merged[index]
    return {
        "width": width,
        "ring": ring,
        "windows": {
            str(i): {
                "t0": merged[i]["t0"],
                "counters": dict(sorted(merged[i]["counters"].items())),
                "gauges": dict(sorted(merged[i]["gauges"].items())),
                "histograms": dict(sorted(merged[i]["histograms"].items())),
            }
            for i in sorted(merged)
        },
    }


def snapshot_percentile(
    snapshot: Dict[str, Any],
    name: str,
    q: float,
    window: Optional[int] = None,
) -> Optional[float]:
    """Quantile of rendered series ``name`` from a snapshot dict."""
    pooled = LogHist()
    for index_str, win in snapshot.get("windows", {}).items():
        if window is not None and int(index_str) != window:
            continue
        data = win.get("histograms", {}).get(name)
        if data is not None:
            pooled.update(LogHist.from_json(data))
    return pooled.quantile(q)


def counter_series(
    snapshot: Dict[str, Any], name: str
) -> List[Tuple[float, float]]:
    """``(window start, value)`` pairs of one rendered counter series."""
    out: List[Tuple[float, float]] = []
    for index_str in sorted(snapshot.get("windows", {}), key=int):
        win = snapshot["windows"][index_str]
        value = win.get("counters", {}).get(name)
        if value is not None:
            out.append((win["t0"], value))
    return out
