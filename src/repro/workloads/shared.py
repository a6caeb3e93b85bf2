"""Shared-folder concurrency scenarios: N devices racing one folder.

The adversarial workload pack behind the PR's concurrency-truth
properties.  A :class:`SharedScenario` describes N writer devices (up
to ~16) editing *overlapping* path sets against a single UniDrive
folder, racing the quorum lock for every commit, optionally under
cloud outages, mobile-churn crash/resume profiles (power loss mid-round
via :meth:`Process.kill`; the next incarnation restores the PR 5 sync
journal from its wire form), slow clouds, and any of the three
conflict policies.

:func:`run_shared` executes the scenario deterministically (everything
derives from ``seed``) and returns a :class:`SharedResult` carrying the
evidence for the three properties the suite asserts:

* **no lost update** — every committed write either survives into the
  converged global state (as some path's current content, a retained
  conflict snapshot, or a conflict-copy file) or is *superseded* by a
  strictly later commit to the same path (a sequential overwrite or a
  deterministic policy resolution — both deliberate, neither silent);
* **convergence** — after quiescence every live device holds the same
  metadata image (modulo unreferenced garbage segments awaiting
  collection, which each device reaps locally on its own schedule) and
  byte-identical folder contents;
* **bounded divergence windows** — for every committed version, the
  span from its commit until the last live device applied it, measured
  from the per-device applied-version observations (mirrored into the
  obs metrics hub as the ``divergence_window`` histogram when metrics
  are enabled).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cloud import SimulatedCloud
from ..core import (
    SyncError,
    SyncJournal,
    UniDriveClient,
    UniDriveConfig,
)
from ..core.lock import LockTimeout
from ..core.scrub import Scrubber
from ..faults import FaultInjector
from ..fsmodel import VirtualFileSystem
from ..obs import OBS, isolated
from ..simkernel import Simulator
from .fleet import make_device
from .parallel import derive_seed

__all__ = [
    "SharedScenario",
    "SharedResult",
    "CommittedWrite",
    "churn_profile",
    "run_shared",
    "resolver_prefer_earlier_device",
]

#: Gap between a device's sync attempts within one round, and the pause
#: a device takes after a failed round before retrying.
_RETRY_PAUSE = 3.0
#: Sync attempts per round before a device gives up on it.
_ROUND_ATTEMPTS = 6


def resolver_prefer_earlier_device(path, local, cloud):
    """The reference per-path callback: lowest device name wins.

    Pure and symmetric — both merging devices reach the same decision
    from the two snapshots alone, which is the contract per-path
    resolvers must honour.
    """
    return "local" if local.device <= cloud.device else "cloud"


@dataclass
class SharedScenario:
    """One shared-folder race, fully determined by its fields."""

    writers: int = 3
    rounds: int = 4
    #: Overlapping path universe every writer draws from.
    paths: Tuple[str, ...] = ("/doc", "/notes", "/todo")
    #: Conflict policy: retain-both | last-writer-wins | per-path.
    policy: str = "retain-both"
    #: Crash schedule: (device index, round index, delay into the sync)
    #: entries — the device loses power that far into that round's sync
    #: and resumes from its journal next round.
    crashes: Tuple[Tuple[int, int, float], ...] = ()
    #: Cloud outages: (cloud index, start time, end time).
    outages: Tuple[Tuple[int, float, float], ...] = ()
    #: Slow-cloud windows: (cloud index, start, end, factor) — the
    #: cloud's links get latency ×factor and bandwidth ÷factor for the
    #: window, answering correctly but slowly.  Applied to the initial
    #: incarnations' connections (crash-resumed incarnations rebuild
    #: their links and start the window clean).
    slow: Tuple[Tuple[int, float, float, float], ...] = ()
    #: Per-sync-round deadline budget in sim seconds (0 = unbounded).
    round_deadline: float = 0.0
    #: After quiescence, run one scrub round (debt repayment included)
    #: on the first live device and re-sync the fleet.
    scrub_after: bool = False
    #: Chance per (device, round) that the device skips it (sporadic
    #: mobile writers rather than lockstep rounds).
    skip_rate: float = 0.0
    seed: int = 0
    n_clouds: int = 5
    #: Virtual seconds between a device's successive rounds.
    round_period: float = 60.0
    lock_stale_seconds: float = 30.0

    def config(self) -> UniDriveConfig:
        return UniDriveConfig(
            theta=64 * 1024,
            check_interval=5.0,
            lock_stale_seconds=self.lock_stale_seconds,
            lock_acquire_timeout=900.0,
            conflict_policy=self.policy,
            round_deadline_seconds=self.round_deadline,
        )


@dataclass
class CommittedWrite:
    """One write that made it into a committed sync round."""

    device: str
    path: str
    content: bytes
    version: int  # metadata version the commit produced
    time: float  # sim time the commit finished
    delete: bool = False


@dataclass
class SharedResult:
    """Evidence :func:`run_shared` collected for the three properties."""

    scenario: SharedScenario
    committed: List[CommittedWrite]
    #: device -> canonical image fingerprint after quiescence.
    fingerprints: Dict[str, str]
    #: device -> {path: content} after quiescence.
    folders: Dict[str, Dict[str, bytes]]
    #: Committed writes violating no-lost-update (should be empty).
    lost_updates: List[CommittedWrite]
    #: version -> seconds from commit to fleet-wide application.
    divergence_windows: Dict[int, float]
    #: Devices that failed to finish their rounds (gave up).
    stalled_devices: List[str]
    crash_count: int = 0
    quiesce_rounds: int = 0
    duration: float = 0.0
    #: Redundancy-debt bookkeeping (degradation control plane): owed
    #: block indices outstanding after the writer rounds + quiescence,
    #: after the optional scrub phase, and how many the scrub repaid.
    debt_after_rounds: int = 0
    debt_after_scrub: int = 0
    debt_repaid: int = 0
    #: Hedged-read tallies summed over every live device's client.
    hedges_fired: int = 0
    hedged_bytes: int = 0
    #: Per-cloud breaker transition counts — the *worst* single
    #: device's breaker per cloud, so the anti-flapping gate (<= 6
    #: transitions) is independent of fleet size.
    breaker_transitions: Dict[str, int] = field(default_factory=dict)
    #: Telemetry snapshot (windows + health + SLO burn rates + per-device
    #: throughput-estimator state); None unless the run opted in.
    telemetry: Optional[Dict] = None

    @property
    def converged(self) -> bool:
        return len(set(self.fingerprints.values())) <= 1

    @property
    def max_divergence(self) -> float:
        return max(self.divergence_windows.values(), default=0.0)


def churn_profile(writers: int, rounds: int, churners: int,
                  seed: int) -> Tuple[Tuple[int, int, float], ...]:
    """A mobile-churn crash schedule: ``churners`` devices each lose
    power once, partway into a random round's sync.

    The delay is drawn in [0.05, 2.5] s into the round — early enough
    to die before the commit on some draws and after block uploads on
    others, which is exactly the spread the journal must cover.
    """
    rng = np.random.default_rng(derive_seed(seed, "churn", writers))
    picks = rng.choice(writers, size=min(churners, writers), replace=False)
    return tuple(
        (int(device), int(rng.integers(0, max(rounds, 1))),
         float(rng.uniform(0.05, 2.5)))
        for device in picks
    )


def _content(seed: int, device: int, round_index: int, path: str) -> bytes:
    """Deterministic, distinct payload for one (device, round, path)."""
    rng = np.random.default_rng(
        derive_seed(seed, f"w{device}r{round_index}", path)
    )
    size = int(rng.integers(64, 2048))
    body = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    return f"d{device}:r{round_index}:{path}:".encode() + body


def image_fingerprint(image) -> str:
    """Canonical digest of an image, ignoring unreferenced segments.

    Garbage (refcount-0) segments are dropped before hashing: each
    device reaps them locally on its own schedule (best-effort GC), so
    they are the one part of a converged fleet's images allowed to
    differ.
    """
    payload = image.to_dict()
    payload["segments"] = {
        sid: record
        for sid, record in payload.get("segments", {}).items()
        if record.get("refcount", 0) > 0
    }
    version = payload.get("version", {})
    if version.get("counter") == 0:
        # Never-committed images carry their own device name in the
        # initial stamp; two empty folders are still the same folder.
        version["device"] = ""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha1(blob).hexdigest()


class _Device:
    """One writer: client incarnations, journal hand-off, obs history."""

    def __init__(self, sim, clouds, name: str, index: int,
                 scenario: SharedScenario, resolver):
        self.sim = sim
        self.clouds = clouds
        self.name = name
        self.index = index
        self.scenario = scenario
        self.resolver = resolver
        self.fs = VirtualFileSystem()
        self.journal = SyncJournal()
        self.client = self._incarnate()
        #: (time, applied version) after every successful sync.
        self.applied: List[Tuple[float, int]] = []
        self.done = False
        self.stalled = False

    def _incarnate(self) -> UniDriveClient:
        return make_device(
            self.sim, self.clouds, self.name,
            seed=derive_seed(self.scenario.seed, self.name),
            config=self.scenario.config(), fs=self.fs,
            journal=self.journal, conflict_resolver=self.resolver,
        )

    def resume_after_crash(self) -> None:
        """Next incarnation: same folder, journal restored from wire."""
        self.journal = SyncJournal.from_bytes(self.journal.to_bytes())
        self.client = self._incarnate()

    def observe(self) -> None:
        self.applied.append(
            (self.sim.now, self.client.image.version.counter)
        )


def run_shared(scenario: SharedScenario,
               telemetry: bool = False) -> SharedResult:
    """Execute the scenario; returns the collected evidence.

    Deterministic: two runs of the same scenario produce identical
    ledgers, fingerprints, and divergence windows.  ``telemetry=True``
    installs a fresh :class:`~repro.obs.Telemetry` pipeline for the
    run's extent (restoring whatever was installed before) and attaches
    its snapshot — windows, per-cloud health timeline, SLO burn rates,
    and each device's throughput-estimator state — as
    ``result.telemetry``.  Every other field is identical either way:
    the pipeline only records, and no device reads it
    (``tests/obs/test_noop_identity.py`` runs the degrade arc both
    ways).
    """
    if not telemetry:
        return _run_shared(scenario)
    with isolated(telemetry=True, tracer=False, metrics=False):
        return _run_shared(scenario)


def _run_shared(scenario: SharedScenario) -> SharedResult:
    if scenario.policy == "per-path":
        resolver = resolver_prefer_earlier_device
    else:
        resolver = None
    sim = Simulator()
    clouds = [
        SimulatedCloud(sim, f"c{i}") for i in range(scenario.n_clouds)
    ]
    injector = FaultInjector(sim)
    for cloud_index, start, end in scenario.outages:
        injector.outage(clouds[cloud_index % len(clouds)], start, end)
    devices = [
        _Device(sim, clouds, f"dev{d}", d, scenario, resolver)
        for d in range(scenario.writers)
    ]
    for cloud_index, start, end, factor in scenario.slow:
        ci = cloud_index % len(clouds)
        injector.slow_cloud(
            [d.client.connections[ci] for d in devices],
            factor, start=start, end=end,
        )
    crash_plan: Dict[Tuple[int, int], float] = {
        (int(d), int(r)): float(delay)
        for d, r, delay in scenario.crashes
    }
    ledger: List[CommittedWrite] = []
    crash_count = 0

    def record_commit(device: _Device, report, written, deleted) -> None:
        if report is None or report.committed_version is None:
            return
        for path, content in written.items():
            if path in report.uploaded_files:
                ledger.append(CommittedWrite(
                    device=device.name, path=path, content=content,
                    version=report.committed_version, time=self_now(),
                ))
        for path in deleted:
            if path in report.deleted_files:
                ledger.append(CommittedWrite(
                    device=device.name, path=path, content=b"",
                    version=report.committed_version, time=self_now(),
                    delete=True,
                ))
        # Conflict copies and carried-over edits commit in later rounds
        # under paths we did not write this round: ledger them from the
        # report so the no-lost-update check covers them too.
        for path in report.uploaded_files:
            if path not in written and device.fs.exists(path):
                ledger.append(CommittedWrite(
                    device=device.name, path=path,
                    content=device.fs.read_file(path),
                    version=report.committed_version, time=self_now(),
                ))

    def self_now() -> float:
        return sim.now

    def sync_with_retry(device: _Device):
        """One round's sync, retried through transient round failures."""
        for _attempt in range(_ROUND_ATTEMPTS):
            try:
                report = yield from device.client.sync()
            except (SyncError, LockTimeout):
                if device.client.lock.held:
                    yield from device.client.lock.release()
                yield sim.timeout(_RETRY_PAUSE)
                continue
            device.observe()
            return report
        device.stalled = True
        return None

    def device_proc(device: _Device):
        rng = np.random.default_rng(
            derive_seed(scenario.seed, f"sched-{device.name}", 0)
        )
        for round_index in range(scenario.rounds):
            target = round_index * scenario.round_period + float(
                rng.uniform(0.0, scenario.round_period / 3.0)
            )
            if target > sim.now:
                yield sim.timeout(target - sim.now)
            crash_delay = crash_plan.get((device.index, round_index))
            if (scenario.skip_rate > 0.0
                    and rng.random() < scenario.skip_rate
                    and crash_delay is None):
                # A device may sit a round out, but not one the churn
                # profile pins a power loss to: the crash must fire.
                continue
            written: Dict[str, bytes] = {}
            deleted: List[str] = []
            n_edits = int(rng.integers(1, min(3, len(scenario.paths)) + 1))
            picks = rng.choice(
                len(scenario.paths), size=n_edits, replace=False
            )
            for pick in picks:
                path = scenario.paths[int(pick)]
                # A sixth of edits are deletes, when the file exists.
                if rng.random() < (1 / 6) and device.fs.exists(path):
                    device.fs.delete_file(path)
                    deleted.append(path)
                else:
                    content = _content(
                        scenario.seed, device.index, round_index, path
                    )
                    device.fs.write_file(path, content, mtime=sim.now)
                    written[path] = content
            if crash_delay is not None:
                # Power loss mid-sync: run the round as a child process,
                # kill it, and resume from the journal next round.  A
                # fast round can commit before the power cut — ledger it
                # if the child got that far, else the journal carries
                # whatever partial state the crash left.
                def crash_round(dev=device, w=written, d=deleted):
                    report = yield from sync_with_retry(dev)
                    record_commit(dev, report, w, d)
                proc = sim.process(crash_round())
                injector.client_crash(
                    device.client, proc, at=sim.now + crash_delay
                )
                yield sim.timeout(crash_delay + 0.5)
                nonlocal_crash()
                device.resume_after_crash()
                continue
            report = yield from sync_with_retry(device)
            record_commit(device, report, written, deleted)
            if device.stalled:
                break
        device.done = True

    crash_counter = [0]

    def nonlocal_crash() -> None:
        crash_counter[0] += 1

    for device in devices:
        sim.process(device_proc(device))
    sim.run()
    crash_count = crash_counter[0]

    # -- quiescence: keep syncing until every live device agrees --------
    quiesce_rounds = 0
    # Crash-recovery backlogs can echo for a few sweeps: a resumed
    # device's stale working copy loses a merge, the retained conflict
    # copy commits, peers fetch it, and only then does the fleet go
    # quiet.  Two sweeps per writer plus headroom covers the worst
    # chains seen under churn; scenarios that need more than this are
    # genuinely not converging.
    max_quiesce = 2 * scenario.writers + 10
    live = [d for d in devices if not d.stalled]
    while quiesce_rounds < max_quiesce:
        quiesce_rounds += 1
        for device in live:
            report = sim.run_process(sync_with_retry(device))
            record_commit(
                device, report,
                {}, [],
            )
        prints = {image_fingerprint(d.client.image) for d in live}
        if len(prints) <= 1 and not any(
            d.client._pending_changes or d.client._pending_fetch
            for d in live
        ):
            break

    # -- degradation bookkeeping: debt repayment and hedge tallies -------
    def outstanding_debt() -> int:
        if not live:
            return 0
        return sum(
            len(rec.debt)
            for rec in live[0].client.image.segments.values()
            if rec.refcount > 0
        )

    debt_after_rounds = outstanding_debt()
    debt_after_scrub = debt_after_rounds
    if scenario.scrub_after and live:
        sim.run_process(
            Scrubber(live[0].client).scrub_round(deep=False, repair=True)
        )
        # The repaid placement commits a new image version; sweep the
        # fleet once more so everyone converges on it.
        for device in live:
            sim.run_process(sync_with_retry(device))
        debt_after_scrub = outstanding_debt()

    fingerprints = {
        d.name: image_fingerprint(d.client.image) for d in live
    }
    folders = {
        d.name: {p: d.client.fs.read_file(p) for p in d.client.fs.paths()}
        for d in live
    }

    lost = _find_lost_updates(ledger, live)
    windows = _divergence_windows(ledger, live)
    if OBS.enabled:
        for span in windows.values():
            OBS.observe("divergence_window", span)
    breaker_transitions: Dict[str, int] = {}
    for device in live:
        for cloud_id, breaker in device.client.degrade._breakers.items():
            breaker_transitions[cloud_id] = max(
                breaker_transitions.get(cloud_id, 0),
                len(breaker.transitions),
            )
    telemetry_snapshot = None
    if OBS.telemetry is not None:
        telemetry_snapshot = OBS.telemetry.snapshot()
        telemetry_snapshot["estimators"] = {
            d.name: d.client.estimator.snapshot() for d in live
        }
    return SharedResult(
        scenario=scenario,
        committed=ledger,
        fingerprints=fingerprints,
        folders=folders,
        lost_updates=lost,
        divergence_windows=windows,
        stalled_devices=[d.name for d in devices if d.stalled],
        crash_count=crash_count,
        quiesce_rounds=quiesce_rounds,
        duration=sim.now,
        debt_after_rounds=debt_after_rounds,
        debt_after_scrub=debt_after_scrub,
        debt_repaid=max(0, debt_after_rounds - debt_after_scrub),
        hedges_fired=sum(d.client.hedges_fired for d in live),
        hedged_bytes=sum(d.client.hedged_bytes for d in live),
        breaker_transitions=breaker_transitions,
        telemetry=telemetry_snapshot,
    )


def _producer(content: bytes) -> Optional[Tuple[str, int]]:
    """Parse the (device, round) provenance a driver payload encodes."""
    parts = content.split(b":", 3)
    if len(parts) < 4:
        return None
    dev, rnd = parts[0], parts[1]
    if not (dev.startswith(b"d") and rnd.startswith(b"r")):
        return None
    try:
        return dev.decode(), int(rnd[1:])
    except (UnicodeDecodeError, ValueError):
        return None


def _find_lost_updates(ledger: Sequence[CommittedWrite],
                       live: Sequence[_Device]) -> List[CommittedWrite]:
    """Committed writes that vanished without a later commit to blame.

    A committed write survives if its exact content is reachable in the
    converged state: as any path's current content (includes conflict
    copies, which are ordinary paths), or as a retained conflict
    snapshot (matched by snapshot size — conflicts under a path whose
    sizes match the write's content length; signature-level matching
    would need re-chunking, and size + path already pin the candidate
    set down to the write itself in these scenarios).  A write that
    does not survive must be *superseded* — deliberately overwritten,
    never silently dropped — witnessed either by a strictly later
    ledgered commit to the same path, or by the converged content at
    that path carrying later-round provenance from the same device
    (covers commits a power cut prevented from being ledgered: driver
    payloads encode their producer, and a device overwrites its own
    paths only with later rounds' content).
    """
    if not live:
        return []
    witness = live[0]
    resolving = witness.scenario.policy != "retain-both"
    current_contents = set()
    for device in live:
        for path in device.client.fs.paths():
            current_contents.add(device.client.fs.read_file(path))
    retained: Dict[str, List[int]] = {}
    for path, entry in witness.client.image.files.items():
        retained[path] = [c.size for c in entry.conflicts]
    converged: Dict[str, bytes] = {
        path: witness.client.fs.read_file(path)
        for path in witness.client.fs.paths()
    }

    lost: List[CommittedWrite] = []
    for write in ledger:
        if write.delete:
            continue  # a delete "survives" by absence; nothing to lose
        if write.content in current_contents:
            continue
        if len(write.content) in retained.get(write.path, []):
            continue
        if any(
            other.path == write.path and other.version > write.version
            and other is not write
            for other in ledger
        ):
            continue
        if resolving:
            # Resolving policies (LWW / per-path) may discard a commit
            # in favour of a *concurrent* edit whose own commit carries
            # an earlier version — no later ledger entry exists, but
            # the survivor is itself a ledgered commit of this path, so
            # the discard was a policy decision, not a silent drop.
            # (Decision correctness is unit-tested on MergePolicy.)
            final = converged.get(write.path)
            if final is not None and any(
                other.path == write.path and other.content == final
                and other.device != write.device
                for other in ledger
            ):
                continue
        mine = _producer(write.content)
        now_there = _producer(converged.get(write.path, b""))
        if (mine is not None and now_there is not None
                and mine[0] == now_there[0] and now_there[1] > mine[1]):
            continue
        lost.append(write)
    return lost


def _divergence_windows(ledger: Sequence[CommittedWrite],
                        live: Sequence[_Device]) -> Dict[int, float]:
    """Seconds from each commit until every live device applied it."""
    windows: Dict[int, float] = {}
    for write in ledger:
        committed_at = write.time
        latest = committed_at
        complete = True
        for device in live:
            applied_at = next(
                (t for t, v in device.applied if v >= write.version),
                None,
            )
            if applied_at is None:
                complete = False
                break
            latest = max(latest, applied_at)
        if complete:
            span = latest - committed_at
            windows[write.version] = max(
                windows.get(write.version, 0.0), span
            )
    return windows
