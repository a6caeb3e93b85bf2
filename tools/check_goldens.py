#!/usr/bin/env python
"""Guard: benchmark reruns must not change deterministic goldens.

The rendered tables under ``benchmarks/results/`` split into two
classes:

* **Deterministic goldens** — figure/table reproductions driven
  entirely by the simulation clock and fixed seeds.  A rerun on any
  host must emit byte-identical text; a diff means a change altered
  *simulated behaviour*, not just performance.
* **Perf reports** — the ``BENCH_*.json`` result files
  (``tools/bench.py``'s kernel numbers, the shared-folder campaign).
  Their numbers move with the host and are expected to differ between
  runs.

Usage::

    python tools/check_goldens.py snapshot --to DIR
    # ... rerun the benchmark suite ...
    python tools/check_goldens.py check --against DIR

CI snapshots the committed results, reruns the benchmarks, then
checks — so a PR claiming "performance only" is *proven* to leave
every simulated figure and table bit-for-bit unchanged while the
wall-clock reports are free to move.
"""

from __future__ import annotations

import argparse
import difflib
import filecmp
import os
import shutil
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(_ROOT, "benchmarks", "results")


def _is_perf(name: str) -> bool:
    """``BENCH_*.json`` carry host wall-clock numbers; everything else
    in the results directory must be a pure function of the seeds."""
    return name.startswith("BENCH_") and name.endswith(".json")


def _listing(directory: str):
    return sorted(
        name for name in os.listdir(directory)
        if os.path.isfile(os.path.join(directory, name))
    )


def snapshot(target: str) -> int:
    os.makedirs(target, exist_ok=True)
    count = 0
    for name in _listing(RESULTS_DIR):
        shutil.copy2(os.path.join(RESULTS_DIR, name),
                     os.path.join(target, name))
        count += 1
    print(f"snapshotted {count} result files to {target}")
    return 0


def check(against: str, max_diff_lines: int = 40) -> int:
    if not os.path.isdir(against):
        print(f"error: snapshot directory {against!r} does not exist",
              file=sys.stderr)
        return 2
    before = set(_listing(against))
    after = set(_listing(RESULTS_DIR))
    failures = []
    perf_changed = []

    for name in sorted(before - after):
        if not _is_perf(name):
            failures.append(f"{name}: deleted by the rerun")
    for name in sorted(after - before):
        if not _is_perf(name):
            failures.append(
                f"{name}: new deterministic golden not in the snapshot "
                "(commit it; wall-clock numbers belong in a BENCH_*.json)"
            )
    for name in sorted(before & after):
        old_path = os.path.join(against, name)
        new_path = os.path.join(RESULTS_DIR, name)
        if filecmp.cmp(old_path, new_path, shallow=False):
            continue
        if _is_perf(name):
            perf_changed.append(name)
            continue
        failures.append(f"{name}: deterministic golden changed")
        try:
            with open(old_path) as fh:
                old_lines = fh.readlines()
            with open(new_path) as fh:
                new_lines = fh.readlines()
        except UnicodeDecodeError:
            continue
        diff = list(difflib.unified_diff(
            old_lines, new_lines, fromfile=f"snapshot/{name}",
            tofile=f"rerun/{name}",
        ))
        sys.stdout.writelines(diff[:max_diff_lines])
        if len(diff) > max_diff_lines:
            print(f"... ({len(diff) - max_diff_lines} more diff lines)")

    deterministic = [n for n in sorted(after) if not _is_perf(n)]
    print(f"checked {len(after)} result files: "
          f"{len(deterministic)} deterministic goldens, "
          f"{len(perf_changed)} perf reports moved (expected)")
    if perf_changed:
        for name in perf_changed:
            print(f"  perf (ok): {name}")
    if failures:
        print(f"\n{len(failures)} deterministic golden(s) changed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        return 1
    print("all deterministic goldens byte-identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    snap = sub.add_parser("snapshot",
                          help="copy benchmarks/results to a directory")
    snap.add_argument("--to", required=True, metavar="DIR")
    chk = sub.add_parser("check",
                         help="diff benchmarks/results against a snapshot")
    chk.add_argument("--against", required=True, metavar="DIR")
    args = parser.parse_args(argv)
    if args.command == "snapshot":
        return snapshot(args.to)
    return check(args.against)


if __name__ == "__main__":
    sys.exit(main())
