"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    A 30-second tour: two simulated devices sync, conflict, resolve.
``capacity``
    The §1 storage-efficiency arithmetic for your quotas.
``compare``
    Pocket Figure 8: every approach moves one file at one vantage point.
``trial``
    A scaled §7.3 user trial with summary statistics.
``results``
    Print the rendered benchmark tables from ``benchmarks/results``.
``inspect-metadata``
    Decrypt and pretty-print a UniDrive metadata file (e.g. one written
    by ``examples/local_folders.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UniDrive reproduction (Middleware 2015) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="two devices sync, conflict and resolve")

    capacity = sub.add_parser(
        "capacity", help="storage efficiency vs replication (paper §1)"
    )
    capacity.add_argument("--quotas", default="100,100,100",
                          help="comma-separated per-cloud quotas (GB)")
    capacity.add_argument("--k", type=int, default=2,
                          help="data blocks per segment")
    capacity.add_argument("--kr", type=int, default=2,
                          help="reliability parameter K_r")
    capacity.add_argument("--failures", type=int, default=1,
                          help="vendor outages to tolerate")

    compare = sub.add_parser(
        "compare", help="one-file shootout: UniDrive vs all baselines"
    )
    compare.add_argument("--location", default="virginia")
    compare.add_argument("--size-mb", type=int, default=8)
    compare.add_argument("--seed", type=int, default=42)

    trial = sub.add_parser("trial", help="scaled real-world trial (§7.3)")
    trial.add_argument("--users", type=int, default=25)
    trial.add_argument("--days", type=float, default=2.0)
    trial.add_argument("--seed", type=int, default=0)

    results = sub.add_parser(
        "results", help="print rendered benchmark tables (benchmarks/results)"
    )
    results.add_argument("--dir", default=None,
                         help="results directory (default: auto-detect)")

    inspect = sub.add_parser(
        "inspect-metadata", help="decrypt and print a metadata file"
    )
    inspect.add_argument("path", help="path to a 'base' metadata blob")
    inspect.add_argument("--key", default="UniDrive",
                         help="8-byte DES key (default: UniDrive)")
    return parser


def _cmd_demo() -> int:
    from . import SimulatedCloud, Simulator, UniDriveConfig
    from .workloads import make_device

    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"cloud{i}") for i in range(5)]
    config = UniDriveConfig(theta=128 * 1024)
    laptop, phone = (
        make_device(sim, clouds, name, seed=31 * d, config=config)
        for d, name in enumerate(("laptop", "phone"))
    )
    laptop.fs.write_file("/hello.txt", b"hello from the laptop",
                         mtime=sim.now)
    sim.run_process(laptop.sync())
    report = sim.run_process(phone.sync())
    print(f"phone received: {report.downloaded_files}")
    laptop.fs.write_file("/hello.txt", b"laptop edit", mtime=sim.now)
    phone.fs.write_file("/hello.txt", b"phone edit", mtime=sim.now)
    sim.run_process(laptop.sync())
    report = sim.run_process(phone.sync())
    print(f"conflict detected at: {report.conflicts}")
    sim.run_process(phone.resolve_conflict("/hello.txt", keep="local"))
    sim.run_process(laptop.sync())
    print(f"after resolution both read: "
          f"{laptop.fs.read_file('/hello.txt').decode()!r}")
    return 0


def _cmd_capacity(args) -> int:
    from .core.capacity import (
        replication_capacity,
        storage_expansion,
        unidrive_capacity,
    )

    quotas = [float(q) for q in args.quotas.split(",") if q]
    unidrive = unidrive_capacity(quotas, args.k, args.kr)
    replicated = replication_capacity(quotas, args.failures)
    expansion = storage_expansion(args.k, args.kr, len(quotas))
    print(f"clouds: {len(quotas)}, quotas: {quotas}")
    print(f"UniDrive  (k={args.k}, K_r={args.kr}): "
          f"{unidrive:.1f} usable ({expansion:.2f}x stored per byte)")
    print(f"replication (tolerating {args.failures} outage(s)): "
          f"{replicated:.1f} usable")
    gain = unidrive / replicated if replicated else float("inf")
    print(f"UniDrive advantage: {gain:.2f}x")
    return 0


def _cmd_compare(args) -> int:
    from .workloads import APPROACHES, Testbed

    size = args.size_mb << 20
    bed = Testbed(args.location, seed=args.seed, retain_content=False)
    ups = bed.measure_upload_all(APPROACHES, size)
    print(f"upload of {args.size_mb} MB at {args.location}:")
    ranked = sorted(
        ups.items(), key=lambda kv: kv[1].duration or float("inf")
    )
    for approach, m in ranked:
        text = f"{m.duration:.1f}s" if m.duration else "failed"
        print(f"  {approach:<12}{text:>10}")
    return 0


def _cmd_trial(args) -> int:
    from .workloads import run_trial

    result = run_trial(n_users=args.users, days=args.days,
                       uploads_per_user=5, seed=args.seed)
    print(f"users: {args.users}, uploads: {len(result.records)}")
    print(f"API request success: {result.api_success_rate:.1%}")
    print(f"file operation success: {result.file_success_rate:.1%}")
    throughputs = result.throughput_by()
    if throughputs:
        import numpy as np

        print(f"median upload throughput: "
              f"{float(np.median(throughputs)):.2f} Mbps")
    return 0


def _cmd_results(args) -> int:
    import glob
    import os

    directory = args.dir
    if directory is None:
        here = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        directory = os.path.join(here, "benchmarks", "results")
    files = sorted(glob.glob(os.path.join(directory, "*.txt")))
    if not files:
        print(f"no rendered results under {directory}; run "
              "`pytest benchmarks/ --benchmark-only` first",
              file=sys.stderr)
        return 1
    for path in files:
        with open(path) as handle:
            print(handle.read())
    return 0


def _cmd_inspect(args) -> int:
    from .core.metadata import MetadataError
    from .core.serialization import deserialize_image

    key = args.key.encode()
    if len(key) != 8:
        print(f"error: key must be exactly 8 bytes, got {len(key)}",
              file=sys.stderr)
        return 2
    try:
        with open(args.path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        print(f"error: no such file: {args.path}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {args.path} ({exc})", file=sys.stderr)
        return 2
    try:
        image = deserialize_image(blob, key)
    except MetadataError as exc:
        print(f"error: cannot decrypt/parse ({exc})", file=sys.stderr)
        return 1
    print(json.dumps(image.to_dict(), indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "capacity":
        return _cmd_capacity(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "trial":
        return _cmd_trial(args)
    if args.command == "results":
        return _cmd_results(args)
    if args.command == "inspect-metadata":
        return _cmd_inspect(args)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
