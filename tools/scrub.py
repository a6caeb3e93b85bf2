#!/usr/bin/env python
"""Drive a durability scenario end to end and emit the repair report.

Builds a five-cloud simulated folder, injects one durability fault,
runs the scrub/repair machinery, then proves recovery by decoding every
file on a fresh device.  The JSON report (``--json``) is the artifact
CI uploads from the chaos-smoke step.

Scenarios::

    clean       no fault: audit must come back clean
    corruption  silent bit rot on one block of every file; deep scrub
                detects and repairs it in place
    loss        one provider permanently lost (data wiped); the folder
                is decommissioned onto the survivors at full fair share
    crash       a device dies mid-upload; its next incarnation resumes
                from the journal, then a scrub sweeps the leftovers

Examples::

    python tools/scrub.py corruption --files 3 --json report.json
    python tools/scrub.py loss --seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.cloud import SimulatedCloud  # noqa: E402
from repro.core import Scrubber, SyncJournal, UniDriveConfig  # noqa: E402
from repro.faults import FaultInjector  # noqa: E402
from repro.simkernel import Simulator  # noqa: E402
from repro.workloads import make_device  # noqa: E402

SCENARIOS = ("clean", "corruption", "loss", "crash")
LOST_CLOUD = "c2"
CONFIG = UniDriveConfig(theta=64 * 1024)


def payload(seed: int, size: int) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def counter_total(metrics, name: str) -> float:
    return sum(
        value for key, value in metrics.snapshot()["counters"].items()
        if key == name or key.startswith(name + "{")
    )


def run_scenario(scenario: str, seed: int, n_files: int,
                 size_kb: int) -> dict:
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed, config=CONFIG)
    files = {
        f"/file{i}": payload(seed + i, size_kb * 1024)
        for i in range(n_files)
    }
    for path, data in files.items():
        writer.fs.write_file(path, data, mtime=sim.now)
    sim.run_process(writer.sync())

    injector = FaultInjector(sim)
    out = {"scenario": scenario, "seed": seed, "files": n_files,
           "size_kb": size_kb}

    with obs.isolated(sim=sim) as (_tracer, metrics):
        if scenario == "corruption":
            for record in writer.image.segments.values():
                index = sorted(record.locations)[0]
                cloud = next(
                    c for c in clouds
                    if c.cloud_id == record.locations[index]
                )
                injector.silent_corruption(
                    cloud,
                    writer.pipeline.block_path(record.segment_id, index),
                    at=sim.now,
                )
            sim.run_process(_wait(sim, 1.0))
        elif scenario == "loss":
            injector.permanent_loss(
                next(c for c in clouds if c.cloud_id == LOST_CLOUD),
                at=sim.now,
            )
            sim.run_process(_wait(sim, 1.0))
        elif scenario == "crash":
            writer.fs.write_file(
                "/late", payload(seed + 99, size_kb * 1024), mtime=sim.now
            )
            proc = sim.process(writer.sync())
            # Kill the round on the next scheduler step: with instant
            # links the whole batch is sub-second, so crash right away.
            injector.client_crash(writer, proc, at=sim.now)
            sim.run()
            files["/late"] = writer.fs.read_file("/late")
            writer = make_device(
                sim, clouds, "writer", seed + 1, config=CONFIG, fs=writer.fs,
                journal=SyncJournal.from_bytes(writer.journal.to_bytes()),
            )
            sim.run_process(writer.sync())

        scrubber = Scrubber(writer)
        if scenario == "loss":
            sim.run_process(scrubber.decommission(LOST_CLOUD, wipe=False))
            clouds = [c for c in clouds if c.cloud_id != LOST_CLOUD]
            scrubber = Scrubber(writer)
            audit, fixed = sim.run_process(
                scrubber.scrub_round(deep=True, repair=True)
            )
        else:
            audit, fixed = sim.run_process(
                scrubber.scrub_round(deep=True, repair=True)
            )
        final = sim.run_process(scrubber.audit(deep=True))
        out["audit"] = audit.to_dict()
        out["repair"] = fixed.to_dict() if fixed is not None else None
        out["final_audit_clean"] = final.clean
        out["metrics"] = {
            name: counter_total(metrics, name)
            for name in ("blocks_repaired", "corrupt_detected",
                         "orphans_swept", "scrub_rounds")
        }

    # Recovery proof: a device that never saw the fault decodes all.
    reader = make_device(sim, clouds, "reader", seed + 1000, config=CONFIG)
    sim.run_process(reader.sync())
    verified = all(
        reader.fs.exists(path) and reader.fs.read_file(path) == data
        for path, data in files.items()
    )
    out["verified_byte_identical"] = verified
    out["healed"] = bool(final.clean and verified)
    return out


def _wait(sim, seconds):
    yield sim.timeout(seconds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="run a durability fault scenario and scrub it clean"
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--files", type=int, default=3)
    parser.add_argument("--size-kb", type=int, default=128)
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = run_scenario(args.scenario, args.seed, args.files,
                          args.size_kb)
    audit = report["audit"]
    print(
        f"scenario={report['scenario']} "
        f"missing={len(audit['missing'])} "
        f"corrupt={len(audit['corrupt'])} "
        f"orphans={sum(len(v) for v in audit['orphaned'].values())} "
        f"repaired={(report['repair'] or {}).get('blocks_repaired', 0)} "
        f"healed={report['healed']}"
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report -> {args.json}")
    return 0 if report["healed"] else 1


if __name__ == "__main__":
    sys.exit(main())
