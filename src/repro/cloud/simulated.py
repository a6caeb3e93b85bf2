"""Simulated consumer cloud storage service and client connections.

A :class:`SimulatedCloud` is the *service*: one authoritative object
store plus an availability flag (outage injection).  Each client device
talks to it through its own :class:`CloudConnection`, which carries that
client's network path — bandwidth processes in both directions, request
latency, and a failure model.  This split matches reality: Dropbox is
one service, but its observed performance differs per vantage point
(paper §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from ..netsim import LinkConditions, LinkProfile, TransferEngine
from ..simkernel import Simulator
from .api import CloudAPI
from .errors import CloudUnavailableError, RequestFailedError
from .storage import ObjectStore

__all__ = [
    "SimulatedCloud",
    "CloudConnection",
    "TrafficMeter",
    "make_instant_connection",
    "REQUEST_OVERHEAD_BYTES",
]

#: Approximate HTTP(S) header + handshake bytes charged per API request.
REQUEST_OVERHEAD_BYTES = 700

#: Listing entries are compact JSON rows.
LIST_ENTRY_BYTES = 120

#: Virtual seconds wasted before concluding a cloud is unreachable.
UNAVAILABLE_TIMEOUT = 10.0


@dataclass
class TrafficMeter:
    """Per-connection accounting used for the Table 3 overhead study."""

    payload_up: int = 0
    payload_down: int = 0
    overhead: int = 0
    requests: int = 0
    failed_requests: int = 0

    @property
    def total(self) -> int:
        return self.payload_up + self.payload_down + self.overhead

    def merge(self, other: "TrafficMeter") -> None:
        self.payload_up += other.payload_up
        self.payload_down += other.payload_down
        self.overhead += other.overhead
        self.requests += other.requests
        self.failed_requests += other.failed_requests


class SimulatedCloud:
    """The service side: storage, quota, and availability."""

    def __init__(self, sim: Simulator, cloud_id: str,
                 quota_bytes: Optional[int] = None,
                 retain_content: bool = True):
        self.sim = sim
        self.cloud_id = cloud_id
        self.store = ObjectStore(cloud_id, quota_bytes,
                                 retain_content=retain_content)
        self.available = True

    def set_available(self, available: bool) -> None:
        """Inject or clear a full-service outage (Figure 14 experiments)."""
        self.available = available


class CloudConnection(CloudAPI):
    """One client's handle to a cloud over its own network path."""

    def __init__(
        self,
        sim: Simulator,
        cloud: SimulatedCloud,
        profile: LinkProfile,
        rng: np.random.Generator,
        stress=None,
        max_parallel: int = 5,
        up_nic=None,
        down_nic=None,
    ):
        self.sim = sim
        self.cloud = cloud
        self.cloud_id = cloud.cloud_id
        self.profile = profile
        self.conditions = LinkConditions(profile, cloud.cloud_id, rng, stress)
        self.uplink = TransferEngine(
            sim, self.conditions.uplink, max_parallel, nic=up_nic,
            trace_track=cloud.cloud_id, trace_name="flow_up",
        )
        self.downlink = TransferEngine(
            sim, self.conditions.downlink, max_parallel, nic=down_nic,
            trace_track=cloud.cloud_id, trace_name="flow_down",
        )
        self.traffic = TrafficMeter()
        self._rng = rng

    @property
    def retains_content(self) -> bool:
        return self.cloud.store.retain_content

    # -- the five RESTful operations -------------------------------------

    def upload(self, path: str, content: bytes, ctx=None) -> Generator:
        yield from self._request(len(content), self.uplink, ctx=ctx)
        self.cloud.store.put(path, content, mtime=self.sim.now)
        self.traffic.payload_up += len(content)

    def download(self, path: str, ctx=None) -> Generator:
        # The server resolves the object before bytes flow, so a missing
        # path errors after latency, not after a transfer.
        yield from self._preamble()
        content = self.cloud.store.get(path)
        yield from self._payload(len(content), self.downlink, ctx=ctx)
        self.traffic.payload_down += len(content)
        return content

    def create_folder(self, path: str) -> Generator:
        yield from self._request(0, self.uplink)
        self.cloud.store.make_folder(path)

    def list_folder(self, path: str) -> Generator:
        yield from self._preamble()
        entries = self.cloud.store.list_folder(path)
        yield from self._payload(LIST_ENTRY_BYTES * len(entries), self.downlink)
        return entries

    def delete(self, path: str) -> Generator:
        yield from self._request(0, self.uplink)
        self.cloud.store.delete(path)

    # -- request plumbing -------------------------------------------------

    def _preamble(self) -> Generator:
        """Latency, availability and failure checks common to requests."""
        self.traffic.requests += 1
        self.traffic.overhead += REQUEST_OVERHEAD_BYTES
        if not self.cloud.available or not self.profile.accessible:
            yield self.sim.timeout(UNAVAILABLE_TIMEOUT)
            self.traffic.failed_requests += 1
            raise CloudUnavailableError(self.cloud_id, "service unreachable")
        yield self.sim.timeout(self.conditions.latency.sample())
        if self.conditions.failures.should_fail(self.sim.now, 0):
            self.traffic.failed_requests += 1
            raise RequestFailedError(self.cloud_id, "transient API failure")

    def _payload(self, nbytes: int, engine: TransferEngine,
                 ctx=None) -> Generator:
        """Move payload bytes; may fail partway through (size-dependent).

        ``ctx`` is an optional ``(trace_id, parent sid)`` correlation
        pair stamped onto the netsim flow span — purely observational,
        it never alters timing or outcomes.  It rides an explicit kwarg
        (not ambient connection state) because several scheduler workers
        interleave on one connection at yield points.
        """
        if nbytes <= 0:
            return
        failure_probability = self.conditions.failures.failure_probability(
            self.sim.now, nbytes
        )
        will_fail = self._rng.random() < failure_probability
        if will_fail:
            fraction = self._rng.uniform(0.05, 0.9)
            transfer = engine.start(nbytes * fraction, ctx=ctx)
            yield transfer.event
            self.traffic.overhead += int(nbytes * fraction)
            self.traffic.failed_requests += 1
            raise RequestFailedError(
                self.cloud_id, f"connection dropped mid-transfer ({nbytes} B)"
            )
        transfer = engine.start(nbytes, ctx=ctx)
        yield transfer.event

    def _request(self, nbytes: int, engine: TransferEngine,
                 ctx=None) -> Generator:
        yield from self._preamble()
        yield from self._payload(nbytes, engine, ctx=ctx)


def make_instant_connection(
    sim: Simulator,
    cloud: SimulatedCloud,
    seed: int = 0,
) -> CloudConnection:
    """A connection with negligible latency, huge bandwidth, no failures.

    Used by unit tests and the quickstart example, where networking is
    irrelevant and virtual time should barely advance.
    """
    profile = LinkProfile(
        up_mbps=1e6,
        down_mbps=1e6,
        rtt_seconds=1e-6,
        failure_rate=0.0,
        volatility=0.0,
        fade_probability=0.0,
        diurnal_amplitude=0.0,
    )
    return CloudConnection(
        sim, cloud, profile, np.random.default_rng(seed), stress=None
    )
