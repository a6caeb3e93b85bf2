"""Experiment harness for the §7 evaluation figures.

Builds the four approaches the paper compares — five native apps, the
intuitive multi-cloud, the RACS/DepSky-style benchmark, and UniDrive —
against a shared set of simulated clouds at any EC2 vantage point, and
measures upload / download / end-to-end sync times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import (
    IntuitiveMultiCloud,
    MultiCloudBenchmark,
    NativeClient,
    ThroughputEstimator,
    UniDriveConfig,
    UniDriveTransfer,
)
from ..core.baselines import NATIVE_CONNECTIONS
from ..obs import OBS
from ..simkernel import Simulator
from .generator import random_bytes
from .locations import CLOUD_IDS, connect_location, make_clouds, make_stress

__all__ = [
    "Testbed",
    "TransferMeasurement",
    "measure_single_transfers",
    "APPROACHES",
]

#: Canonical approach names used across the benchmark tables.
APPROACHES = ["dropbox", "onedrive", "gdrive", "baidupcs", "dbank",
              "intuitive", "benchmark", "unidrive"]


@dataclass
class TransferMeasurement:
    """One measured transfer for one approach."""

    approach: str
    location: str
    direction: str
    size: int
    duration: Optional[float]
    succeeded: bool

    @property
    def throughput_mbps(self) -> Optional[float]:
        if not self.succeeded or not self.duration:
            return None
        return self.size * 8 / self.duration / 1e6


class Testbed:
    """One vantage point with every approach wired to shared clouds."""

    __test__ = False  # not a pytest class despite the harness-y name

    def __init__(self, location: str, seed: int = 0,
                 config: Optional[UniDriveConfig] = None,
                 with_stress: bool = True,
                 retain_content: bool = True):
        self.location = location
        self.seed = seed
        self.config = config or UniDriveConfig()
        self.sim = Simulator()
        self.clouds = make_clouds(self.sim, CLOUD_IDS,
                                  retain_content=retain_content)
        self._stress = make_stress(seed + 11) if with_stress else None
        # Separate connection sets per approach keep traffic metering
        # and probing state isolated, but every set shares one seed so
        # all approaches face the *same* bandwidth realizations — a
        # paired comparison, like measuring back to back on one host.
        #
        # Sets (and the clients on top of them) are built lazily, on
        # first use of each approach: measuring two approaches pays for
        # two connection sets, not all eight.  Laziness cannot change
        # results — every set's rngs are seeded by (seed, cloud index)
        # alone, independent of construction order, and construction
        # schedules no simulator events.
        self._conn_sets: Dict[str, list] = {}
        self._clients: Dict[str, object] = {}
        self.estimator = ThroughputEstimator()
        self._rng = np.random.default_rng(seed + 29)
        self._counter = 0

    def connections_for(self, approach: str) -> list:
        if approach not in APPROACHES:
            raise KeyError(f"unknown approach {approach!r}")
        connections = self._conn_sets.get(approach)
        if connections is None:
            # Native apps (and the intuitive solution built from them)
            # sustain only their app-specific connection counts.
            parallel = (
                NATIVE_CONNECTIONS
                if approach in CLOUD_IDS or approach == "intuitive"
                else 5
            )
            connections = connect_location(
                self.sim, self.clouds, self.location,
                seed=self.seed * 100, stress=self._stress,
                max_parallel=parallel,
            )
            self._conn_sets[approach] = connections
        return connections

    # -- lazily-built per-approach clients ----------------------------------

    @property
    def natives(self) -> Dict[str, NativeClient]:
        """All five native clients (forces their connection sets)."""
        return {cid: self._client(cid) for cid in CLOUD_IDS}

    @property
    def intuitive(self) -> IntuitiveMultiCloud:
        return self._client("intuitive")

    @property
    def benchmark(self) -> MultiCloudBenchmark:
        return self._client("benchmark")

    @property
    def unidrive(self) -> UniDriveTransfer:
        return self._client("unidrive")

    # -- measurement primitives ---------------------------------------------

    def measure_upload(self, approach: str, size: int) -> TransferMeasurement:
        """Upload a fresh random file through one approach; time it."""
        content = random_bytes(self._rng, size)
        path = self._fresh_path(approach)
        span = None
        if OBS.enabled:
            span, _ = OBS.begin(
                "probe", t=self.sim.now, track=approach,
                dir="up", size=size, location=self.location,
            )
        outcome = self.sim.run_process(
            self._client(approach).upload(path, content)
        )
        if span is not None:
            OBS.end(span, t=self.sim.now, ok=outcome.succeeded)
        return self._record(approach, "up", size, outcome)

    def measure_download(self, approach: str, size: int,
                         path: str = None) -> TransferMeasurement:
        """Time a download; uploads a fresh file first unless ``path``
        names one this approach already uploaded (repeat measurements
        of a stored file avoid paying the upload again)."""
        client = self._client(approach)
        if path is None:
            content = random_bytes(self._rng, size)
            path = self._fresh_path(approach)
            up = self.sim.run_process(client.upload(path, content))
            if not up.succeeded:
                return self._record(approach, "down", size, up)
        span = None
        if OBS.enabled:
            span, _ = OBS.begin(
                "probe", t=self.sim.now, track=approach,
                dir="down", size=size, location=self.location,
            )
        if isinstance(client, MultiCloudBenchmark):
            outcome = self.sim.run_process(client.download(path))
        else:
            outcome = self.sim.run_process(client.download(path, size))
        if span is not None:
            OBS.end(span, t=self.sim.now, ok=outcome.succeeded)
        return self._record(approach, "down", size, outcome)

    def seed_file(self, approach: str, size: int):
        """Upload a file for later repeated downloads; returns its path
        (or None when the upload failed)."""
        content = random_bytes(self._rng, size)
        path = self._fresh_path(approach)
        outcome = self.sim.run_process(
            self._client(approach).upload(path, content)
        )
        return path if outcome.succeeded else None

    def measure_upload_all(self, approaches, size):
        """Time one upload per approach, all starting at the same
        instant (their connection sets are independent, so they do not
        interfere) — a perfectly paired comparison across identical
        bandwidth epochs."""
        content = random_bytes(self._rng, size)
        procs = {}
        for approach in approaches:
            path = self._fresh_path(approach)
            procs[approach] = self.sim.process(
                self._client(approach).upload(path, content)
            )

        def waiter():
            from repro.simkernel import AllOf

            yield AllOf(self.sim, list(procs.values()))

        self.sim.run_process(waiter())
        return {
            a: self._record(a, "up", size, p.value)
            for a, p in procs.items()
        }

    def measure_download_all(self, approaches, size, paths):
        """Time one download per approach concurrently; ``paths`` maps
        approach -> a previously stored path (see :meth:`seed_file`)."""
        procs = {}
        for approach in approaches:
            client = self._client(approach)
            if isinstance(client, MultiCloudBenchmark):
                gen = client.download(paths[approach])
            else:
                gen = client.download(paths[approach], size)
            procs[approach] = self.sim.process(gen)

        def waiter():
            from repro.simkernel import AllOf

            yield AllOf(self.sim, list(procs.values()))

        self.sim.run_process(waiter())
        return {
            a: self._record(a, "down", size, p.value)
            for a, p in procs.items()
        }

    def advance(self, seconds: float) -> None:
        """Let virtual time pass (temporal variation studies)."""
        self.sim.run(until=self.sim.now + seconds)

    # -- internals -----------------------------------------------------------

    def _client(self, approach: str):
        client = self._clients.get(approach)
        if client is None:
            client = self._build_client(approach)
            self._clients[approach] = client
        return client

    def _build_client(self, approach: str):
        connections = self.connections_for(approach)
        if approach in CLOUD_IDS:
            return NativeClient(
                self.sim, connections[CLOUD_IDS.index(approach)]
            )
        if approach == "intuitive":
            return IntuitiveMultiCloud(
                self.sim,
                [NativeClient(self.sim, conn) for conn in connections],
            )
        if approach == "benchmark":
            return MultiCloudBenchmark(self.sim, connections, self.config)
        if approach == "unidrive":
            return UniDriveTransfer(
                self.sim, connections, self.config,
                estimator=self.estimator,
            )
        raise KeyError(f"unknown approach {approach!r}")

    def _fresh_path(self, approach: str) -> str:
        self._counter += 1
        return f"/bench/{approach}/f{self._counter}.bin"

    def _record(self, approach, direction, size, outcome):
        return TransferMeasurement(
            approach=approach,
            location=self.location,
            direction=direction,
            size=size,
            duration=outcome.duration if outcome.succeeded else None,
            succeeded=outcome.succeeded,
        )


def measure_single_transfers(
    location: str,
    approaches: Sequence[str],
    size: int,
    repeats: int = 5,
    gap_seconds: float = 1800.0,
    seed: int = 0,
    directions: Sequence[str] = ("up", "down"),
    config: Optional[UniDriveConfig] = None,
    reducer=None,
):
    """Repeated up/down measurement of each approach at one location.

    Repeats are spread ``gap_seconds`` apart so temporal bandwidth
    variation is sampled, as in the paper's methodology.  With a
    ``reducer``, measurements stream into a reducer state (returned
    unfinalized, for submission-order merging by the parallel runner)
    instead of materializing the list.
    """
    bed = Testbed(location, seed=seed, config=config, retain_content=False)
    if reducer is None:
        out: List[TransferMeasurement] = []
        emit = out.append
    else:
        state = reducer.init()

        def emit(item):
            nonlocal state
            state = reducer.absorb(state, item)

    for _round in range(repeats):
        for approach in approaches:
            if "up" in directions:
                emit(bed.measure_upload(approach, size))
            if "down" in directions:
                emit(bed.measure_download(approach, size))
        bed.advance(gap_seconds)
    return out if reducer is None else state
