"""Small coordination helpers shared by control- and data-plane code."""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Tuple

from ..cloud import CloudError
from ..simkernel import AllOf, Simulator

__all__ = ["gather_safe", "Outcome"]

Outcome = Tuple[bool, Any]  # (succeeded, value-or-CloudError)


def _wrap(generator: Generator) -> Generator:
    try:
        value = yield from generator
    except CloudError as exc:
        return (False, exc)
    return (True, value)


def gather_safe(sim: Simulator,
                generators: Iterable[Generator]) -> Generator:
    """Run generators concurrently; collect per-task (ok, value) outcomes.

    Unlike :class:`AllOf`, one cloud's failure does not abort the batch
    — exactly what multi-cloud fan-out needs, where some clouds are
    expected to be slow or down.  Only a :class:`CloudError` is an
    outcome; any other exception is a fault of the caller's code and
    propagates.  Results preserve input order.
    """
    processes = [sim.process(_wrap(g)) for g in generators]
    if not processes:
        return []
    outcomes: List[Outcome] = yield AllOf(sim, processes)
    return outcomes
