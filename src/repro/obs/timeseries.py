"""Sim-clock windowed time-series aggregation, and the log histogram.

End-of-run metric snapshots (:mod:`repro.obs.metrics`) answer "how much,
in total"; this module answers "how much, *when*".  Observations are
bucketed into fixed-width **tumbling windows** of the virtual clock
(window ``i`` covers ``[i*width, (i+1)*width)``), and a rolling ring
keeps the most recent ``ring`` windows so an always-on service can run
forever in bounded memory.

Per window, three instrument kinds mirror the flat registry:

* **counters** — sums, labelled;
* **gauges** — last-writer-wins *by observation time* (ties resolved
  toward the later submission);
* **log histograms** — fixed-size base-2 histograms (:class:`LogHist`,
  the one histogram type in the repo: the metrics registry and the
  campaign reducers in ``repro/workloads`` use it too) with approximate
  quantiles, merging by vector addition.

Everything here is plain floats/dicts — recording never draws
randomness, never touches the simulator, and snapshots are JSON-safe,
so the zero-overhead/byte-identity contract of the obs layer carries
over unchanged.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["LogHist", "TimeSeries"]

_SeriesKey = Tuple[Any, ...]


def _series_key(name: str, labels: Dict[str, Any]) -> _SeriesKey:
    if not labels:
        return (name,)
    return (name,) + tuple(sorted(labels.items()))


def _render_key(key: _SeriesKey) -> str:
    if len(key) == 1:
        return key[0]
    inner = ",".join(f"{k}={v}" for k, v in key[1:])
    return f"{key[0]}{{{inner}}}"


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
