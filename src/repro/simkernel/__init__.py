"""Deterministic discrete-event simulation kernel (SimPy-flavoured)."""

from .core import (
    AllOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)

__all__ = [
    "AllOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]
