"""Metrics registry: labelled counters, gauges, log histograms.

Library code feeds the registry through the process-global hub
(:data:`repro.obs.hub.OBS`); the registry itself never touches
randomness or the simulator, so enabling metrics cannot perturb
simulation results.

Series are keyed by ``(name, sorted(labels))``; snapshots render keys in
Prometheus style (``bytes_up{cloud=gdrive}``) with deterministic label
order so snapshots are directly comparable across runs and processes.
A histogram series is one :class:`~repro.obs.timeseries.LogHist`, the
repo's single histogram type, so every snapshot merges by addition.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from .timeseries import LogHist, _render_key, _series_key, _SeriesKey

__all__ = ["Metrics", "merge_snapshots"]


class Metrics:
    """A process-local metrics registry."""

    def __init__(self):
        self._counters: Dict[_SeriesKey, float] = {}
        self._gauges: Dict[_SeriesKey, float] = {}
        self._histograms: Dict[_SeriesKey, LogHist] = {}

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
            hist = LogHist()
            self._histograms[key] = hist
        hist.add(value)

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
    """Combine per-process snapshots: counters and histograms add,
    gauges are last-writer-wins (in the given, i.e. submission, order)."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, LogHist] = {}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
        gauges.update(snap.get("gauges", {}))
        for key, data in snap.get("histograms", {}).items():
            hist = histograms.setdefault(key, LogHist())
            hist.update(LogHist.from_json(data))
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            key: histograms[key].to_json() for key in sorted(histograms)
        },
    }
