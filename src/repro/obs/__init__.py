"""repro.obs — sim-clock-aware tracing and metrics for the sync stack.

Typical use::

    from repro import obs

    sim = Simulator()
    tracer, metrics = obs.configure(sim=sim)     # enable, clock = sim.now
    ... run workload ...
    obs.export.write_jsonl(tracer.records, "trace.jsonl",
                           metrics=metrics.snapshot())
    obs.export.write_chrome(tracer.records, "trace_chrome.json")
    obs.disable()

:func:`configure` is the **single** observability entry point: library
code never calls ``logging.basicConfig`` (or touches the root logger) —
an optional ``log_level`` here attaches one stream handler to the
``"repro"`` logger for ad-hoc diagnostics, and everything structured
flows through the one hub, :data:`OBS` (see :mod:`repro.obs.hub`),
instead.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import Any, Callable, Optional, Tuple, Union

from . import export, health, slo, timeseries
from .health import HealthScoreboard
from .hub import OBS, ObsHub
from .metrics import Metrics, merge_snapshots
from .slo import SLO, SLOEngine
from .telemetry import Telemetry
from .timeseries import TimeSeries
from .tracer import EventRecord, SpanRecord, Tracer, ctx_attrs

__all__ = [
    "configure",
    "disable",
    "isolated",
    "get_tracer",
    "get_metrics",
    "get_telemetry",
    "OBS",
    "ObsHub",
    "Tracer",
    "Metrics",
    "Telemetry",
    "TimeSeries",
    "HealthScoreboard",
    "SLO",
    "SLOEngine",
    "SpanRecord",
    "EventRecord",
    "merge_snapshots",
    "ctx_attrs",
    "export",
    "health",
    "slo",
    "timeseries",
]

_LOG_HANDLER_FLAG = "_repro_obs_handler"


def _configure_logging(level: int) -> None:
    """Attach (once) a stream handler to the ``repro`` logger only."""
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    if not any(getattr(h, _LOG_HANDLER_FLAG, False) for h in logger.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(name)s %(levelname)s %(message)s")
        )
        setattr(handler, _LOG_HANDLER_FLAG, True)
        logger.addHandler(handler)
    logger.propagate = False


def configure(
    enabled: bool = True,
    sim: Optional[Any] = None,
    clock: Optional[Callable[[], float]] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[Metrics] = None,
    telemetry: Union[bool, Telemetry, None] = None,
    log_level: Optional[int] = None,
) -> Tuple[Optional[Tracer], Optional[Metrics]]:
    """Install (or tear down) the process-global tracer and metrics.

    ``sim`` binds the tracer clock to ``sim.now``; an explicit ``clock``
    callable wins over ``sim``.  ``telemetry`` opts into the streaming
    subsystem (windows + health scoreboard + SLO engine): pass ``True``
    for a stock :class:`Telemetry` pipeline or a configured instance;
    the default ``None`` leaves the installed pipeline untouched so
    existing callers keep their exact behaviour.  Returns
    ``(tracer, metrics)`` — the installed instances — or
    ``(None, None)`` when ``enabled=False`` (which also uninstalls
    telemetry).
    """
    if log_level is not None:
        _configure_logging(log_level)
    if not enabled:
        OBS.install()
        return None, None
    if clock is None and sim is not None:
        clock = lambda: sim.now  # noqa: E731 - tiny closure over the sim
    if tracer is None:
        tracer = Tracer(clock) if clock is not None else Tracer()
    elif clock is not None:
        tracer.clock = clock
    if metrics is None:
        metrics = Metrics()
    if telemetry is None:
        telemetry = OBS.telemetry
    elif telemetry is True:
        telemetry = Telemetry()
    elif telemetry is False:
        telemetry = None
    OBS.install(tracer, metrics, telemetry)
    return tracer, metrics


def disable() -> None:
    """Uninstall tracer, metrics and telemetry; the guard goes back to
    False."""
    OBS.install()


def get_tracer() -> Optional[Tracer]:
    return OBS.tracer


def get_metrics() -> Optional[Metrics]:
    return OBS.metrics


def get_telemetry() -> Optional[Telemetry]:
    return OBS.telemetry


@contextmanager
def isolated(
    sim: Optional[Any] = None,
    clock: Optional[Callable[[], float]] = None,
    telemetry: Union[bool, Telemetry, None] = None,
    tracer: bool = True,
    metrics: bool = True,
):
    """Install fresh sinks for the dynamic extent of the block,
    restoring whatever was installed before (also on an exception).
    Used by the parallel campaign runner (each worker cell gets its own
    buffer), by tools and by tests.

    By default a fresh tracer+metrics pair is installed; ``tracer=False``
    / ``metrics=False`` keep the surrounding sink instead (counters-only
    and telemetry-only installs).  ``telemetry`` follows
    :func:`configure`'s convention (``None`` keeps the surrounding
    pipeline installed; ``True``/an instance isolates one).  Yields the
    installed ``(tracer, metrics)``."""
    previous = (OBS.tracer, OBS.metrics, OBS.telemetry)
    try:
        configure(sim=sim, clock=clock, telemetry=telemetry)
        OBS.install(
            OBS.tracer if tracer else previous[0],
            OBS.metrics if metrics else previous[1],
            OBS.telemetry,
        )
        yield OBS.tracer, OBS.metrics
    finally:
        OBS.install(*previous)
