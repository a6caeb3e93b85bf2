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
from .sync import Gate, Resource, Store

__all__ = [
    "AllOf",
    "Event",
    "Gate",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
