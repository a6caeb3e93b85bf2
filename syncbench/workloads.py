"""The four workloads: generated inputs, timed phase, oracle, byte meters.

Every workload is a closed loop in one thread: the next op is issued
only after the previous one returned.  Inputs come from ``--seed`` and
nothing else; the program under test sees only the generated files and
link parameters.  ``SIZES`` is frozen — results stamp it, and a run at
other sizes (``--size``) can never be mistaken for a reference run.

Two clocks.  ``wall_s``/``setup_s`` are *host* seconds; every
``sim_s`` is *simulated* seconds on the modelled links and is exact for
a fixed seed.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import Simulator, UniDriveClient, UniDriveConfig
from repro.cloud import CloudConnection, SimulatedCloud
from repro.fsmodel import VirtualFileSystem
from repro.netsim import LinkProfile
from repro.workloads import generator, trial

__all__ = ["SIZES", "WHY", "WORKLOADS", "Run"]

_KIB = 1024
_MIB = 1024 * 1024

#: Frozen workload sizes (calibrated to a 5-8 s timed phase on the
#: 2-core reference host; see README "Reference host").
SIZES: Dict[str, Dict[str, int]] = {
    "ingest_large": {"rounds": 4, "files_per_round": 4,
                     "file_bytes": 4 * _MIB},
    "fanout_small": {"files": 250, "file_bytes": 64 * _KIB, "readers": 2},
    "edit_steady": {"devices": 3, "files": 150, "file_bytes": 64 * _KIB,
                    "waves": 100, "edit_bytes": 16, "idle_sim_s": 30},
    "trial_fleet": {"n_users": 800, "uploads_per_user": 4, "days": 7},
}

WHY: Dict[str, str] = {
    "ingest_large": "write path, big segments: 4 rounds x 4 new 4 MiB files "
                    "on 5-80 Mbps links; chunking and codec dominate, "
                    "dispatch and metadata do not",
    "fanout_small": "read path, many small segments: 2 new devices each "
                    "download 250 x 64 KiB; download dispatch dominates, "
                    "chunking is bypassed",
    "edit_steady": "steady state: 100 waves of a 16-byte edit synced by 3 "
                   "devices over a 150-file folder; metadata crypto, delta "
                   "and lock dominate, data plane is idle",
    "trial_fleet": "campaign: 800 users x 4 synthetic uploads over 7 days on "
                   "failing links; sim kernel, netsim, upload dispatch and "
                   "retry; the only workload with failed ops",
}

#: The paper's skewed regime: per-connection Mbps of the five clouds.
LINK_MBPS = (5, 10, 20, 40, 80)
LINK_RTT_S = 0.05


class Run:
    """What one repeat measured; filled in by the workload function.

    ``install`` (traced pass only) wraps the layer seams and returns the
    object whose ``remove()`` unwraps them; ``set_op`` tells the tracer
    which op is in flight.  Both bracket the timed phase exactly, so
    set-up rounds are never traced.
    """

    def __init__(self, install: Optional[Callable] = None,
                 set_op: Optional[Callable[[int], None]] = None):
        self._install = install
        self.set_op = set_op
        self.setup_done = 0.0  # host clock at the end of set-up
        self.phase_start = 0.0  # host clock, timed phase
        self.wall_s = 0.0
        self.cpu_s = (0.0, 0.0)  # (user, system) CPU seconds of the phase
        self.op_sim_s: List[float] = []  # sim duration of each good op
        self.ops = 0
        self.failed_ops = 0
        self.oracle_ok = False
        self.user_bytes = 0  # written or received during the phase
        self.live_bytes = 0  # user bytes alive in the folder afterwards
        self.stored_bytes = 0  # Σ cloud.store.used_bytes afterwards
        #: Exact facts both the traced and the untraced pass can see.
        self.counts: Dict[str, int] = {}

    @contextlib.contextmanager
    def timed(self):
        """The timed phase: everything before it was set-up."""
        self.setup_done = time.perf_counter()
        patches = self._install() if self._install is not None else None
        cpu0 = os.times()
        self.phase_start = time.perf_counter()
        try:
            yield
            self.wall_s = time.perf_counter() - self.phase_start
            cpu1 = os.times()
            self.cpu_s = (cpu1.user - cpu0.user, cpu1.system - cpu0.system)
        finally:
            if patches is not None:
                patches.remove()


def _random_files(rng: np.random.Generator, count: int, nominal: int,
                  prefix: str) -> Dict[str, bytes]:
    """``count`` incompressible files of about ``nominal`` bytes each.

    Sizes scatter by up to ±1/64 around ``nominal``: with identical
    sizes no sim duration would depend on the seed at all (links are
    deterministic and segment ids have a fixed length), and a metric
    that cannot move with its input cannot be checked against it.
    """
    scatter = nominal // 64
    sizes = nominal + rng.integers(-scatter, scatter + 1, size=count)
    ends = np.cumsum(sizes)
    blob = generator.random_bytes(rng, int(ends[-1]))
    return {
        f"{prefix}{i:04d}.bin": blob[end - size:end]
        for i, (size, end) in enumerate(zip(sizes.tolist(), ends.tolist()))
    }


def _meters(connections, clients=()) -> Dict[str, int]:
    totals = {"cloud.requests": 0, "cloud.failed_requests": 0,
              "cloud.wire_bytes": 0, "metadata.bytes": 0}
    for conn in connections:
        meter = conn.traffic
        totals["cloud.requests"] += meter.requests
        totals["cloud.failed_requests"] += meter.failed_requests
        totals["cloud.wire_bytes"] += meter.total
    for client in clients:
        totals["metadata.bytes"] += client.metadata_bytes
    return totals


class _Fleet:
    """Five clouds on skewed, failure-free links and N devices."""

    def __init__(self, seed: int, n_devices: int):
        self.sim = Simulator()
        self.clouds = [SimulatedCloud(self.sim, f"cloud{i}")
                       for i in range(len(LINK_MBPS))]
        self.devices: List[UniDriveClient] = []
        self.connections: List[CloudConnection] = []
        for d in range(n_devices):
            conns = [
                CloudConnection(
                    self.sim, cloud,
                    LinkProfile(
                        up_mbps=mbps, down_mbps=mbps,
                        rtt_seconds=LINK_RTT_S, latency_jitter=0.0,
                        failure_rate=0.0, volatility=0.0,
                        fade_probability=0.0, diurnal_amplitude=0.0,
                    ),
                    np.random.default_rng([seed, 1, d, i]),
                )
                for i, (cloud, mbps) in enumerate(zip(self.clouds, LINK_MBPS))
            ]
            self.connections.extend(conns)
            self.devices.append(UniDriveClient(
                self.sim, f"d{d}", VirtualFileSystem(), conns,
                config=UniDriveConfig(),
                rng=np.random.default_rng([seed, 2, d]),
            ))
        #: The generator's view of the folder: path -> content.
        self.expected: Dict[str, bytes] = {}

    def write(self, device: UniDriveClient, path: str, content: bytes):
        device.fs.write_file(path, content, mtime=self.sim.now)
        self.expected[path] = content

    def sync(self, device: UniDriveClient) -> float:
        """One untimed set-up round; returns its sim duration."""
        return self.sim.run_process(device.sync()).duration

    def diverged(self) -> List[str]:
        """Devices whose folder is not byte-identical to ``expected``."""
        bad = []
        for device in self.devices:
            paths = device.fs.paths()
            if sorted(paths) != sorted(self.expected) or any(
                device.fs.read_file(p) != self.expected[p] for p in paths
            ):
                bad.append(device.device)
        return bad


def _timed_syncs(fleet: _Fleet, run: Run, schedule: Callable) -> None:
    """Drive ``schedule`` (a generator of devices to sync, doing its own
    folder edits between yields) as the timed phase."""
    before = _meters(fleet.connections, fleet.devices)
    steps0 = fleet.sim.steps
    with run.timed():
        for device in schedule():
            if run.set_op is not None:
                run.set_op(run.ops)
            run.ops += 1
            try:
                report = fleet.sim.run_process(device.sync())
            except Exception:  # an op that raises is a failed op
                traceback.print_exc(file=sys.stderr)
                run.failed_ops += 1
            else:
                run.op_sim_s.append(report.duration)
    after = _meters(fleet.connections, fleet.devices)
    run.counts = {k: after[k] - before[k] for k in after}
    run.counts["simkernel.steps"] = fleet.sim.steps - steps0
    run.counts["client.rounds"] = run.ops
    diverged = fleet.diverged()
    if diverged:
        print(f"oracle: diverged devices {diverged}", file=sys.stderr)
    # A diverged device means at least one of its ops did not do its job.
    run.failed_ops = max(run.failed_ops, len(diverged))
    run.oracle_ok = not diverged
    run.live_bytes = sum(len(c) for c in fleet.expected.values())
    run.stored_bytes = sum(c.store.used_bytes for c in fleet.clouds)


def ingest_large(seed: int, sizes: Dict[str, int], run: Run):
    fleet = _Fleet(seed, 1)
    device = fleet.devices[0]
    rng = np.random.default_rng([seed, 0])
    rounds = [
        _random_files(rng, sizes["files_per_round"], sizes["file_bytes"],
                      prefix=f"/r{r}/f")
        for r in range(sizes["rounds"])
    ]

    def schedule():
        for batch in rounds:
            for path, content in batch.items():
                fleet.write(device, path, content)
                run.user_bytes += len(content)
            yield device

    _timed_syncs(fleet, run, schedule)


def fanout_small(seed: int, sizes: Dict[str, int], run: Run):
    fleet = _Fleet(seed, 1 + sizes["readers"])
    writer, readers = fleet.devices[0], fleet.devices[1:]
    rng = np.random.default_rng([seed, 0])
    folder = _random_files(rng, sizes["files"], sizes["file_bytes"],
                           prefix="/d/f")
    for path, content in folder.items():
        fleet.write(writer, path, content)
    fleet.sync(writer)

    def schedule():
        for reader in readers:
            run.user_bytes += sum(len(c) for c in folder.values())
            yield reader

    _timed_syncs(fleet, run, schedule)


def edit_steady(seed: int, sizes: Dict[str, int], run: Run):
    fleet = _Fleet(seed, sizes["devices"])
    editor = fleet.devices[0]
    rng = np.random.default_rng([seed, 0])
    folder = _random_files(rng, sizes["files"], sizes["file_bytes"],
                           prefix="/d/f")
    paths = sorted(folder)
    for path in paths:
        fleet.write(editor, path, folder[path])
    for device in fleet.devices:
        fleet.sync(device)

    def schedule():
        for wave in range(sizes["waves"]):
            path = paths[wave % len(paths)]
            edited = generator.apply_edit(
                rng, fleet.expected[path], edit_size=sizes["edit_bytes"]
            )
            fleet.write(editor, path, edited)
            run.user_bytes += len(edited) * len(fleet.devices)
            fleet.sim.run(until=fleet.sim.now + sizes["idle_sim_s"])
            yield from fleet.devices

    _timed_syncs(fleet, run, schedule)


def trial_fleet(seed: int, sizes: Dict[str, int], run: Run):
    """One ``run_trial`` shard; op = one user upload.

    ``run_trial`` builds its clouds and connections inside and returns
    no byte meters, so the connection factory it calls is intercepted on
    the trial module's own binding to keep what it returns (one call per
    user — nowhere near a hot path, and present in both passes).
    """
    connections: List[CloudConnection] = []
    connect_location = trial.connect_location

    def keep_connections(*args, **kwargs):
        made = connect_location(*args, **kwargs)
        connections.extend(made)
        return made

    trial.connect_location = keep_connections
    try:
        with run.timed():
            result = trial.run_trial(
                n_users=sizes["n_users"],
                uploads_per_user=sizes["uploads_per_user"],
                days=sizes["days"], payload="synthetic", seed=seed,
            )
    finally:
        trial.connect_location = connect_location
    records = result.records
    run.ops = len(records)
    run.failed_ops = sum(1 for r in records if not r.succeeded)
    run.op_sim_s = [r.duration for r in records if r.succeeded]
    run.oracle_ok = run.ops == sizes["n_users"] * sizes["uploads_per_user"]
    run.user_bytes = sum(r.size for r in records)
    run.live_bytes = sum(r.size for r in records if r.succeeded)
    # Synthetic segment ids repeat across users ("syn-<per-user serial>"),
    # so blocks overwrite each other in the shared stores and used_bytes
    # undercounts; the bytes the clouds accepted are the stored bytes.
    run.stored_bytes = sum(c.traffic.payload_up for c in connections)
    run.counts = _meters(connections)
    run.counts["client.rounds"] = run.ops


WORKLOADS: Dict[str, Callable] = {
    "ingest_large": ingest_large,
    "fanout_small": fanout_small,
    "edit_steady": edit_steady,
    "trial_fleet": trial_fleet,
}
