"""Metrics registry: labelled counters, gauges, fixed-bucket histograms.

Library code feeds the registry through the process-global hub
(:data:`repro.obs.hub.OBS`); the registry itself never touches
randomness or the simulator, so enabling metrics cannot perturb
simulation results.

Series are keyed by ``(name, sorted(labels))``; snapshots render keys in
Prometheus style (``bytes_up{cloud=gdrive}``) with deterministic label
order so snapshots are directly comparable across runs and processes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence, Tuple

__all__ = ["Metrics", "DEFAULT_BUCKETS", "merge_snapshots"]

#: Default histogram bucket upper bounds — geometric ladder wide enough
#: for both durations (seconds) and dimensionless ratios.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
)

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


class _Histogram:
    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float]):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = 0
        for bound in self.bounds:
            if value <= bound:
                break
            i += 1
        self.counts[i] += 1
        self.total += value
        self.count += 1

    def to_json(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class Metrics:
    """A process-local metrics registry."""

    def __init__(self):
        self._counters: Dict[_SeriesKey, float] = {}
        self._gauges: Dict[_SeriesKey, float] = {}
        self._histograms: Dict[_SeriesKey, _Histogram] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}

    # -- primitives ------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self._gauges[_series_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _series_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = _Histogram(self._buckets.get(name, DEFAULT_BUCKETS))
            self._histograms[key] = hist
        hist.observe(value)

    def register_buckets(self, name: str, bounds: Sequence[float]) -> None:
        """Fix the bucket bounds used for future ``observe(name, ...)``."""
        self._buckets[name] = tuple(sorted(bounds))

    # -- reads -----------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        return self._counters.get(_series_key(name, labels), 0.0)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view with deterministic key order."""
        return {
            "counters": {
                _render_key(k): v for k, v in sorted(
                    self._counters.items(), key=lambda kv: _render_key(kv[0])
                )
            },
            "gauges": {
                _render_key(k): v for k, v in sorted(
                    self._gauges.items(), key=lambda kv: _render_key(kv[0])
                )
            },
            "histograms": {
                _render_key(k): h.to_json() for k, h in sorted(
                    self._histograms.items(), key=lambda kv: _render_key(kv[0])
                )
            },
        }


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-process snapshots: counters and histogram counts sum,
    gauges are last-writer-wins (in the given, i.e. submission, order)."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
        gauges.update(snap.get("gauges", {}))
        for key, hist in snap.get("histograms", {}).items():
            have = histograms.get(key)
            if have is None or have["bounds"] != hist["bounds"]:
                if have is not None:
                    raise ValueError(
                        f"histogram {key!r}: bucket bounds differ across snapshots"
                    )
                histograms[key] = {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
            else:
                have["counts"] = [
                    a + b for a, b in zip(have["counts"], hist["counts"])
                ]
                have["sum"] += hist["sum"]
                have["count"] += hist["count"]
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
