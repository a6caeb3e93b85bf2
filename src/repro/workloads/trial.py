"""Synthetic reproduction of the 272-user real-world trial (§7.3).

The paper's trial distributed UniDrive to users on heterogeneous
networks (residential, university, corporate) across 21 sites and
logged every upload's throughput plus Web API success rates.  We
synthesize an equivalent population:

* each user gets a home location (drawn from the vantage-point tables),
  a personal bandwidth scale factor (last-mile diversity), and 3-5
  enrolled clouds;
* users perform uploads at random times across the trial window with
  file sizes from the trial's documents/multimedia mixture;
* links run with inflated failure rates so the *request* success rate
  lands near the trial's 82.5%, while UniDrive's multi-cloud retry
  keeps *file operation* success near 98%+.

Figures 15 and 16 are direct aggregations of the emitted records —
which stream through a reducer (default :class:`TrialColumns`, a
columnar store in exact emission order) rather than materializing a
dataclass per upload.

Scaling the population beyond the figure configurations uses three
orthogonal knobs (see DESIGN.md "Campaign scaling model"):

* ``cohort_size`` decomposes the population into independent cohorts,
  each its own simulator fanned over :func:`~repro.workloads.parallel.
  run_cells` — memory stays bounded by one cohort, not the fleet.
  Every user keeps a seed derived from the global ``(seed, user_id)``
  pair, so a user's behavior does not depend on which worker or chunk
  ran their cohort; cohort-local draw interleavings do differ from the
  single-simulator run, so the default (``None``) preserves the
  figure-grade monolithic realization exactly.
* ``payload="synthetic"`` replaces random content generation +
  chunking + GF(256) encoding (>80% of trial wall time) with
  size-only :class:`~repro.core.pipeline.SyntheticPayload` uploads.
* a fixed-size reducer (:class:`TrialFleetStats`) caps memory per
  cohort result at a few KB regardless of upload count.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import UniDriveConfig, UniDriveTransfer
from ..simkernel import Simulator
from .generator import TrialSizeMixture, bucket_of, random_bytes
from .locations import (
    CLOUD_IDS,
    EC2_NODES,
    PLANETLAB_NODES,
    connect_location,
    make_clouds,
    make_stress,
)
from .reduce import LogHist, Reducer, ReservoirSample

__all__ = [
    "TrialRecord",
    "TrialResult",
    "ApiCounters",
    "TrialColumns",
    "TrialFleetStats",
    "FleetSummary",
    "run_trial",
]

_DAY = 86400.0
_NAN = float("nan")


@dataclass(frozen=True)
class TrialRecord:
    """One file upload by one trial user."""

    user: int
    location: str
    t: float
    size: int
    duration: Optional[float]
    succeeded: bool

    @property
    def throughput_mbps(self) -> Optional[float]:
        if not self.succeeded or not self.duration:
            return None
        return self.size * 8 / self.duration / 1e6

    @property
    def bucket(self) -> str:
        return bucket_of(self.size)

    @property
    def day(self) -> int:
        return int(self.t // _DAY)


@dataclass(frozen=True)
class ApiCounters:
    """Shard-terminal stream item: Web API traffic totals of one cohort."""

    requests: int
    failures: int
    users: int = 0
    days: float = 0.0


class _Columns:
    """Column-oriented store of trial records, in exact emission order.

    ~40 bytes per record (vs ~150 for a ``TrialRecord`` in a list) and
    picklable as flat buffers — this is the exact, figure-grade tier of
    the reduced form.  Locations are interned through a side table.
    """

    __slots__ = ("user", "loc", "t", "size", "duration", "succeeded",
                 "locations", "_loc_index",
                 "api_requests", "api_failures", "users", "days")

    def __init__(self):
        self.user = array("q")
        self.loc = array("i")
        self.t = array("d")
        self.size = array("q")
        self.duration = array("d")  # NaN encodes "no duration"
        self.succeeded = bytearray()
        self.locations: List[str] = []
        self._loc_index: Dict[str, int] = {}
        self.api_requests = 0
        self.api_failures = 0
        self.users = 0
        self.days = 0.0

    def __len__(self) -> int:
        return len(self.t)

    def add(self, record: TrialRecord) -> None:
        index = self._loc_index.get(record.location)
        if index is None:
            index = len(self.locations)
            self._loc_index[record.location] = index
            self.locations.append(record.location)
        self.user.append(record.user)
        self.loc.append(index)
        self.t.append(record.t)
        self.size.append(record.size)
        self.duration.append(
            _NAN if record.duration is None else record.duration
        )
        self.succeeded.append(1 if record.succeeded else 0)

    def extend(self, other: "_Columns") -> None:
        remap = [0] * len(other.locations)
        for index, location in enumerate(other.locations):
            mine = self._loc_index.get(location)
            if mine is None:
                mine = len(self.locations)
                self._loc_index[location] = mine
                self.locations.append(location)
            remap[index] = mine
        self.user.extend(other.user)
        self.loc.extend(remap[i] for i in other.loc)
        self.t.extend(other.t)
        self.size.extend(other.size)
        self.duration.extend(other.duration)
        self.succeeded.extend(other.succeeded)
        self.api_requests += other.api_requests
        self.api_failures += other.api_failures
        self.users += other.users
        if other.days > self.days:
            self.days = other.days

    def record(self, index: int) -> TrialRecord:
        duration = self.duration[index]
        return TrialRecord(
            user=self.user[index],
            location=self.locations[self.loc[index]],
            t=self.t[index],
            size=self.size[index],
            duration=None if duration != duration else duration,
            succeeded=bool(self.succeeded[index]),
        )

    def __getstate__(self):
        return (self.user, self.loc, self.t, self.size, self.duration,
                self.succeeded, self.locations, self.api_requests,
                self.api_failures, self.users, self.days)

    def __setstate__(self, state):
        (self.user, self.loc, self.t, self.size, self.duration,
         self.succeeded, self.locations, self.api_requests,
         self.api_failures, self.users, self.days) = state
        self._loc_index = {
            location: index
            for index, location in enumerate(self.locations)
        }


class TrialResult:
    """Aggregated outcome of one synthetic trial.

    Backed by the columnar reduced form; ``records`` materializes
    (and caches) the dataclass view lazily for callers that iterate
    record objects, while :meth:`throughput_by` and the rate
    properties read the columns directly — same values, same order,
    byte-identical to the historical list-of-records implementation.
    """

    def __init__(self, records: Optional[Sequence[TrialRecord]] = None,
                 api_requests: int = 0, api_failures: int = 0,
                 days: float = 0.0, columns: Optional[_Columns] = None):
        if columns is None:
            columns = _Columns()
            for record in records or ():
                columns.add(record)
            columns.api_requests = api_requests
            columns.api_failures = api_failures
            columns.days = days
        self._columns = columns
        self._records: Optional[List[TrialRecord]] = None

    @property
    def columns(self) -> _Columns:
        return self._columns

    @property
    def records(self) -> List[TrialRecord]:
        if self._records is None:
            columns = self._columns
            self._records = [
                columns.record(index) for index in range(len(columns))
            ]
        return self._records

    @property
    def api_requests(self) -> int:
        return self._columns.api_requests

    @property
    def api_failures(self) -> int:
        return self._columns.api_failures

    @property
    def days(self) -> float:
        return self._columns.days

    @property
    def api_success_rate(self) -> float:
        if self.api_requests == 0:
            return 1.0
        return 1.0 - self.api_failures / self.api_requests

    @property
    def file_success_rate(self) -> float:
        columns = self._columns
        if not len(columns):
            return 1.0
        return sum(columns.succeeded) / len(columns)

    def throughput_by(self, location: Optional[str] = None,
                      bucket: Optional[str] = None,
                      day: Optional[int] = None) -> List[float]:
        columns = self._columns
        if location is not None:
            loc_index = columns._loc_index.get(location, -1)
        out: List[float] = []
        for index in range(len(columns)):
            if not columns.succeeded[index]:
                continue
            duration = columns.duration[index]
            if duration != duration or not duration:
                continue
            if location is not None and columns.loc[index] != loc_index:
                continue
            size = columns.size[index]
            if bucket is not None and bucket_of(size) != bucket:
                continue
            if day is not None and int(columns.t[index] // _DAY) != day:
                continue
            out.append(size * 8 / duration / 1e6)
        return out

    def __repr__(self):
        return (f"TrialResult(records={len(self._columns)}, "
                f"api_requests={self.api_requests}, "
                f"api_failures={self.api_failures}, days={self.days})")


class TrialColumns(Reducer):
    """Exact columnar reducer — the default; finalizes to
    :class:`TrialResult`."""

    def init(self) -> _Columns:
        return _Columns()

    def absorb(self, state: _Columns, item) -> _Columns:
        if type(item) is ApiCounters:
            state.api_requests += item.requests
            state.api_failures += item.failures
            state.users += item.users
            if item.days > state.days:
                state.days = item.days
        else:
            state.add(item)
        return state

    def merge(self, state: _Columns, other: _Columns) -> _Columns:
        state.extend(other)
        return state

    def finalize(self, state: _Columns) -> TrialResult:
        return TrialResult(columns=state)


@dataclass
class FleetSummary:
    """Fixed-size aggregate of a fleet-scale trial."""

    users: int
    uploads: int
    succeeded: int
    api_requests: int
    api_failures: int
    days: float
    by_bucket: Dict[str, dict] = field(default_factory=dict)
    by_day: Dict[int, dict] = field(default_factory=dict)
    throughput_hist: Optional[LogHist] = None
    sample: Optional[ReservoirSample] = None

    @property
    def file_success_rate(self) -> float:
        return self.succeeded / self.uploads if self.uploads else 1.0

    @property
    def api_success_rate(self) -> float:
        if self.api_requests == 0:
            return 1.0
        return 1.0 - self.api_failures / self.api_requests


class TrialFleetStats(Reducer):
    """Fixed-size reducer for fleet-scale trials.

    Counters and log histograms per size bucket and per trial day plus
    a deterministic reservoir of records: a cohort's entire result is
    a few KB however many uploads it simulated.  Medians read off the
    histograms are approximate (half-bucket resolution); exact
    statistics belong to :class:`TrialColumns`.
    """

    def __init__(self, reservoir: int = 512):
        self.reservoir = reservoir

    def init(self):
        return {
            "users": 0, "uploads": 0, "succeeded": 0,
            "api_requests": 0, "api_failures": 0, "days": 0.0,
            "bucket": {}, "day": {},
            "hist": LogHist(),
            "sample": ReservoirSample(self.reservoir),
        }

    def absorb(self, state, item):
        if type(item) is ApiCounters:
            state["api_requests"] += item.requests
            state["api_failures"] += item.failures
            state["users"] += item.users
            if item.days > state["days"]:
                state["days"] = item.days
            return state
        state["uploads"] += 1
        throughput = item.throughput_mbps
        bucket = state["bucket"].setdefault(
            item.bucket, {"count": 0, "ok": 0, "hist": LogHist()}
        )
        day = state["day"].setdefault(item.day, {"count": 0, "ok": 0})
        bucket["count"] += 1
        day["count"] += 1
        if item.succeeded:
            state["succeeded"] += 1
            bucket["ok"] += 1
            day["ok"] += 1
        bucket["hist"].add(throughput)
        state["hist"].add(throughput)
        state["sample"].add(item)
        return state

    def merge(self, state, other):
        for key in ("users", "uploads", "succeeded",
                    "api_requests", "api_failures"):
            state[key] += other[key]
        if other["days"] > state["days"]:
            state["days"] = other["days"]
        for label, entry in other["bucket"].items():
            mine = state["bucket"].get(label)
            if mine is None:
                state["bucket"][label] = entry
            else:
                mine["count"] += entry["count"]
                mine["ok"] += entry["ok"]
                mine["hist"].update(entry["hist"])
        for day, entry in other["day"].items():
            mine = state["day"].get(day)
            if mine is None:
                state["day"][day] = entry
            else:
                mine["count"] += entry["count"]
                mine["ok"] += entry["ok"]
        state["hist"].update(other["hist"])
        state["sample"].update(other["sample"])
        return state

    def finalize(self, state) -> FleetSummary:
        return FleetSummary(
            users=state["users"],
            uploads=state["uploads"],
            succeeded=state["succeeded"],
            api_requests=state["api_requests"],
            api_failures=state["api_failures"],
            days=state["days"],
            by_bucket={
                label: dict(entry, median_mbps=entry["hist"].quantile(0.5))
                for label, entry in sorted(state["bucket"].items())
            },
            by_day={
                day: dict(entry)
                for day, entry in sorted(state["day"].items())
            },
            throughput_hist=state["hist"],
            sample=state["sample"],
        )


def _run_trial_shard(
    n_users: int,
    days: float = 7.0,
    uploads_per_user: int = 8,
    seed: int = 0,
    failure_scale: float = 3.5,
    locations: Optional[Sequence[str]] = None,
    config: Optional[UniDriveConfig] = None,
    attr_seed: Optional[int] = None,
    user_base: int = 0,
    payload: str = "real",
    reducer=None,
):
    """Simulate one cohort of trial users; returns the reducer state.

    The monolithic trial is the single shard ``user_base=0,
    attr_seed=None`` — byte-identical to the historical
    single-function implementation.  Per-user randomness (connection
    conditions, upload times, content) is seeded by the *global*
    ``(seed, user_id)`` formulas, so a user behaves identically
    whichever cohort executes them; only cohort-shared draws (home
    location, enrolled clouds, size mixture, stress process) are
    seeded per cohort via ``attr_seed``.
    """
    if payload not in ("real", "synthetic"):
        raise ValueError(f"unknown payload mode {payload!r}")
    if reducer is None:
        reducer = TrialColumns()
    state = reducer.init()
    sim = Simulator()
    attr_base = seed if attr_seed is None else attr_seed
    rng = np.random.default_rng(attr_base)
    sites = list(locations or (PLANETLAB_NODES + EC2_NODES))
    config = config or UniDriveConfig(theta=1024 * 1024)
    clouds = make_clouds(sim, CLOUD_IDS, retain_content=False)
    stress = make_stress(attr_base + 3, CLOUD_IDS, mean_calm=2400.0,
                         mean_stress=1200.0)
    mixture = TrialSizeMixture(np.random.default_rng(attr_base + 5))
    all_connections = []
    synthetic = payload == "synthetic"

    def user_process(user_id: int):
        nonlocal state
        location = sites[int(rng.integers(0, len(sites)))]
        bandwidth_scale = float(np.exp(rng.normal(0.0, 0.45)))
        n_clouds = int(rng.integers(3, len(CLOUD_IDS) + 1))
        enrolled = list(rng.choice(len(clouds), size=n_clouds, replace=False))
        connections = connect_location(
            sim, [clouds[i] for i in enrolled], location,
            seed=seed + 17 * user_id + 1,
            stress=stress, bandwidth_scale=bandwidth_scale,
        )
        # Consumer networks are rough: inflate base failure rates.
        for conn in connections:
            conn.conditions.failures.base_rate = min(
                0.3, conn.conditions.failures.base_rate * failure_scale
            )
        all_connections.extend(connections)
        user_config = UniDriveConfig(
            theta=config.theta,
            k_blocks=config.k_blocks,
            k_reliability=min(config.k_reliability, n_clouds),
            k_security=min(config.k_security, n_clouds),
        )
        client = UniDriveTransfer(sim, connections, user_config)
        user_rng = np.random.default_rng(seed + 23 * user_id + 7)
        times = np.sort(user_rng.uniform(0, days * _DAY, uploads_per_user))
        for upload_index, when in enumerate(times):
            delay = when - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            size = mixture.sample()
            began = sim.now
            if synthetic:
                outcome = yield from client.upload_sized(
                    f"/u{user_id}/f{upload_index}.bin", size
                )
            else:
                content = random_bytes(user_rng, size)
                outcome = yield from client.upload(
                    f"/u{user_id}/f{upload_index}.bin", content
                )
            state = reducer.absorb(
                state,
                TrialRecord(
                    user=user_id,
                    location=location,
                    t=began,
                    size=size,
                    duration=outcome.duration,
                    succeeded=outcome.succeeded,
                ),
            )

    for user in range(user_base, user_base + n_users):
        sim.process(user_process(user))
    sim.run()
    state = reducer.absorb(state, ApiCounters(
        requests=sum(c.traffic.requests for c in all_connections),
        failures=sum(c.traffic.failed_requests for c in all_connections),
        users=n_users,
        days=days,
    ))
    return state


def run_trial(
    n_users: int = 272,
    days: float = 7.0,
    uploads_per_user: int = 8,
    seed: int = 0,
    failure_scale: float = 3.5,
    locations: Optional[Sequence[str]] = None,
    config: Optional[UniDriveConfig] = None,
    reducer=None,
    cohort_size: Optional[int] = None,
    payload: str = "real",
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
):
    """Simulate the trial; returns the finalized reducer result.

    ``failure_scale`` inflates every link's base failure rate to model
    the much rougher consumer networks observed in the wild (the paper
    measured 82.5% request success during the trial versus ~99% from
    PlanetLab).

    Defaults reproduce the historical behavior exactly: one simulator,
    real random payloads, a :class:`TrialResult` of per-upload records.
    For fleet-scale populations set ``cohort_size`` (independent
    cohorts fanned over the parallel runner, memory bounded by one
    cohort), ``payload="synthetic"`` (size-only uploads — skips the
    host-side chunk/encode data plane) and optionally a fixed-size
    ``reducer`` such as :class:`TrialFleetStats`.
    """
    if reducer is None:
        reducer = TrialColumns()
    if cohort_size is None or cohort_size >= n_users:
        state = _run_trial_shard(
            n_users=n_users, days=days,
            uploads_per_user=uploads_per_user, seed=seed,
            failure_scale=failure_scale, locations=locations,
            config=config, payload=payload, reducer=reducer,
        )
        return reducer.finalize(state)

    from .parallel import derive_seed, run_cells, trial_cell

    cohort_size = max(1, int(cohort_size))
    cells = []
    for index, base in enumerate(range(0, n_users, cohort_size)):
        cells.append(trial_cell(
            n_users=min(cohort_size, n_users - base),
            days=days, uploads_per_user=uploads_per_user, seed=seed,
            failure_scale=failure_scale, locations=locations,
            config=config,
            attr_seed=derive_seed(seed, "trial-cohort", index),
            user_base=base, payload=payload,
        ))
    return run_cells(cells, max_workers=max_workers,
                     chunk_size=chunk_size, reducer=reducer)
