#!/usr/bin/env python
"""Run measurement campaigns in parallel across cores.

Fans independent (location, seed, repeat) cells of the §3.2 probe
campaign — or the §7 single-transfer comparison, or the §7.3 user
trial at fleet scale — over a process pool with deterministic per-cell
seeding and ordered merge, then prints one summary row per cell.  The
merged output is byte-identical to a serial run of the same cells
(``--workers 1``), whatever the ``--chunk-size``.

Examples::

    # two-day probe campaigns at three vantage points, 4 workers
    python tools/campaign.py campaign princeton beijing tokyo_pl \\
        --size-mb 8 --days 2 --workers 4

    # repeated 4 MB up/down comparison of the §7 approaches
    python tools/campaign.py transfers virginia ireland \\
        --approaches gdrive unidrive --size-mb 4 --repeats 3

    # three seeds per location (replicated cells)
    python tools/campaign.py campaign princeton --repeats 3 --json out.json

    # a 100k-user synthetic-payload trial in 250-user cohorts
    python tools/campaign.py trial --users 100000 --cohort-size 250 \\
        --days 7 --workers 8 --progress

    # 8 devices racing one shared folder for 20 rounds, every policy
    python tools/campaign.py shared --writers 8 --rounds 20 \\
        --policy each --json benchmarks/results/BENCH_shared.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading
import time
from dataclasses import asdict

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import obs  # noqa: E402
from repro.workloads import (  # noqa: E402
    APPROACHES,
    TrialFleetStats,
    campaign_cell,
    default_workers,
    derive_seed,
    run_cells,
    run_trial,
    transfers_cell,
)

_MB = 1024 * 1024


def _build_cells(args):
    cells, labels = [], []
    for location in args.locations:
        for repeat in range(args.repeats):
            seed = (
                args.seed
                if args.seed is not None and args.repeats == 1
                and len(args.locations) == 1
                else derive_seed(args.seed or 0, location, repeat)
            )
            labels.append((location, repeat, seed))
            if args.kind == "campaign":
                cells.append(campaign_cell(
                    location, sizes=[args.size_mb * _MB],
                    interval=args.interval, duration_days=args.days,
                    seed=seed,
                ))
            else:
                cells.append(transfers_cell(
                    location, args.approaches, args.size_mb * _MB,
                    repeats=args.probe_rounds, seed=seed,
                ))
    return cells, labels


class _Progress:
    """Background reporter over the obs-metrics progress counters.

    ``run_cells`` advances the ``cells_done`` / ``users_simulated``
    counters as chunks complete; this thread samples them once a second
    and rewrites one stderr status line.  Reading a snapshot never
    perturbs the simulation (the metrics hub touches no randomness).
    """

    def __init__(self, metrics, total_cells: int, total_users: int):
        self.metrics = metrics
        self.total_cells = total_cells
        self.total_users = total_users
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _line(self) -> str:
        counters = self.metrics.snapshot()["counters"]
        cells = int(counters.get("cells_done", 0))
        users = int(counters.get("users_simulated", 0))
        line = f"progress: {cells}/{self.total_cells} cells"
        if self.total_users:
            line += f", {users}/{self.total_users} users"
        return line

    def _loop(self):
        while not self._stop.wait(1.0):
            print(f"\r{self._line()}", end="", file=sys.stderr, flush=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        print(f"\r{self._line()}", file=sys.stderr, flush=True)


def _run_trial_cli(args) -> int:
    users = args.users
    cohort = args.cohort_size
    if cohort is None:
        cohort = min(max(users // max(default_workers(), 1) // 4, 50), 500)
    workers = default_workers() if args.workers is None else args.workers
    cells = -(-users // cohort) if users else 1
    print(f"{users} users in {cells} cohort(s) of <= {cohort} "
          f"on {workers} worker(s), payload={args.payload}")
    # Counters only — installing a tracer would also span-instrument
    # every encode inside inline cells.
    with obs.isolated(tracer=False) as (_, metrics):
        start = time.perf_counter()
        with _Progress(metrics, cells, users) if args.progress \
                else _null_context():
            summary = run_trial(
                n_users=users,
                days=args.days,
                uploads_per_user=args.uploads_per_user,
                seed=args.seed or 0,
                locations=args.locations or None,
                reducer=TrialFleetStats(),
                cohort_size=cohort if cohort < users else None,
                payload=args.payload,
                max_workers=workers,
                chunk_size=args.chunk_size,
            )
        elapsed = time.perf_counter() - start
        counters = metrics.snapshot()["counters"]

    print(f"users: {summary.users}   uploads: {summary.uploads}   "
          f"days: {summary.days:g}")
    print(f"file success: {summary.file_success_rate:.2%}   "
          f"api success: {summary.api_success_rate:.2%} "
          f"({summary.api_requests} requests)")
    print(f"{'bucket':<12}{'uploads':>9}{'ok':>9}{'median Mbps':>13}")
    for label, entry in summary.by_bucket.items():
        median = entry.get("median_mbps")
        median_text = f"{median:.2f}" if median is not None else "-"
        print(f"{label:<12}{entry['count']:>9}{entry['ok']:>9}"
              f"{median_text:>13}")
    print(f"{summary.uploads} uploads in {elapsed:.2f}s wall "
          f"({summary.users / elapsed:.0f} users/s); counters: "
          f"cells_done={counters.get('cells_done', 0):g} "
          f"users_simulated={counters.get('users_simulated', 0):g}")

    if args.json:
        payload = {
            "users": summary.users,
            "uploads": summary.uploads,
            "days": summary.days,
            "file_success_rate": summary.file_success_rate,
            "api_success_rate": summary.api_success_rate,
            "api_requests": summary.api_requests,
            "api_failures": summary.api_failures,
            "by_bucket": {
                label: {k: v for k, v in entry.items() if k != "hist"}
                for label, entry in summary.by_bucket.items()
            },
            "by_day": summary.by_day,
            "wall_seconds": elapsed,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


class _null_context:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_SHARED_POLICIES = ("retain-both", "last-writer-wins", "per-path")


def _run_shared_cli(args) -> int:
    """Shared-folder scenario campaign (§5.2): N writers, one folder.

    Exit status is the invariant check — non-zero if any policy run
    loses an update, stalls a device, or fails to converge.
    """
    from repro.workloads.shared import (  # noqa: E402
        SharedScenario,
        churn_profile,
        run_shared,
    )

    policies = (
        _SHARED_POLICIES if args.policy == "each" else (args.policy,)
    )
    seed = args.seed or 0
    crashes = (
        churn_profile(args.writers, args.rounds, args.churners, seed)
        if args.churners else ()
    )
    # --degrade: the 1-slow + 1-down chaos arc.  Cloud 1 browns out
    # (slow, no errors) for the first half of the run, cloud 2 goes
    # fully dark overlapping it; both recover with rounds to spare so
    # the post-quiescence scrub can repay every brownout commit's debt.
    slow = ()
    outages = ()
    if args.degrade:
        horizon = args.rounds * 60.0
        slow = ((1, 0.1 * horizon, 0.6 * horizon, args.slow_factor),)
        outages = ((2, 0.2 * horizon, 0.7 * horizon),)
    rows = []
    telemetry_runs = []
    violations = 0
    extra = ("  debt  repaid  hedges  maxtrans" if args.degrade else "")
    print(f"{'policy':<18}{'writers':>8}{'rounds':>7}{'commits':>8}"
          f"{'lost':>5}{'conv':>5}{'stall':>6}{'maxdiv s':>9}"
          f"{'wall s':>8}{extra}")
    for policy in policies:
        scenario = SharedScenario(
            writers=args.writers,
            rounds=args.rounds,
            policy=policy,
            crashes=crashes,
            skip_rate=args.skip_rate,
            seed=seed,
            slow=slow,
            outages=outages,
            scrub_after=bool(args.degrade),
        )
        start = time.perf_counter()
        res = run_shared(scenario, telemetry=bool(args.telemetry))
        wall = time.perf_counter() - start
        if args.telemetry:
            telemetry_runs.append({
                "policy": policy,
                "writers": args.writers,
                "rounds": args.rounds,
                "seed": seed,
                "telemetry": res.telemetry,
            })
        ok = (res.converged and not res.lost_updates
              and not res.stalled_devices)
        if args.degrade:
            max_transitions = max(
                res.breaker_transitions.values(), default=0
            )
            ok = ok and res.debt_after_scrub == 0 \
                and max_transitions <= args.max_transitions
        violations += 0 if ok else 1
        line = (f"{policy:<18}{args.writers:>8}{args.rounds:>7}"
                f"{len(res.committed):>8}{len(res.lost_updates):>5}"
                f"{'y' if res.converged else 'N':>5}"
                f"{len(res.stalled_devices):>6}"
                f"{res.max_divergence:>9.1f}{wall:>8.2f}")
        if args.degrade:
            line += (f"{res.debt_after_rounds:>6}{res.debt_repaid:>8}"
                     f"{res.hedges_fired:>8}{max_transitions:>10}")
        print(line)
        rows.append({
            "policy": policy,
            "writers": args.writers,
            "rounds": args.rounds,
            "crashes": len(crashes),
            "skip_rate": args.skip_rate,
            "seed": seed,
            "commits": len(res.committed),
            "lost_updates": len(res.lost_updates),
            "converged": res.converged,
            "stalled_devices": res.stalled_devices,
            "quiesce_rounds": res.quiesce_rounds,
            "max_divergence_s": res.max_divergence,
            "virtual_duration_s": res.duration,
            "wall_seconds": wall,
            "degrade": bool(args.degrade),
            "debt_after_rounds": res.debt_after_rounds,
            "debt_after_scrub": res.debt_after_scrub,
            "debt_repaid": res.debt_repaid,
            "hedges_fired": res.hedges_fired,
            "hedged_bytes": res.hedged_bytes,
            "breaker_transitions": res.breaker_transitions,
        })
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"kind": "shared", "runs": rows}, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.telemetry:
        with open(args.telemetry, "w") as handle:
            json.dump({"kind": "shared-telemetry", "runs": telemetry_runs},
                      handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.telemetry} "
              "(render with tools/health.py)")
    if violations:
        print(f"{violations} run(s) violated the shared-folder "
              "invariants", file=sys.stderr)
        return 1
    return 0


def _summarize_campaign(samples):
    ok = [s for s in samples if s.succeeded]
    durations = [s.duration for s in ok]
    return {
        "samples": len(samples),
        "success_rate": len(ok) / len(samples) if samples else 0.0,
        "avg_duration_s": (
            sum(durations) / len(durations) if durations else None
        ),
    }


def _summarize_transfers(measurements):
    ok = [m for m in measurements if m.succeeded]
    return {
        "samples": len(measurements),
        "success_rate": (
            len(ok) / len(measurements) if measurements else 0.0
        ),
        "avg_duration_s": (
            sum(m.duration for m in ok) / len(ok) if ok else None
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]),
    )
    parser.add_argument("kind",
                        choices=["campaign", "transfers", "trial", "shared"],
                        help="probe campaign (§3.2), approach comparison "
                             "(§7), fleet trial (§7.3), or shared-folder "
                             "scenario (§5.2)")
    parser.add_argument("locations", nargs="*",
                        help="vantage points (PlanetLab or EC2 node names); "
                             "optional for trial (defaults to all)")
    parser.add_argument("--size-mb", type=int, default=8,
                        help="probe size in MB (default 8)")
    parser.add_argument("--days", type=float, default=2.0,
                        help="campaign length in virtual days (default 2)")
    parser.add_argument("--interval", type=float, default=7200.0,
                        help="probe interval in virtual seconds")
    parser.add_argument("--repeats", type=int, default=1,
                        help="independent seeded cells per location")
    parser.add_argument("--probe-rounds", type=int, default=5,
                        help="transfers mode: measurement rounds per cell")
    parser.add_argument("--approaches", nargs="+", default=APPROACHES,
                        help="transfers mode: approaches to compare")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed for per-cell seed derivation")
    parser.add_argument("--users", type=int, default=272,
                        help="trial mode: simulated population "
                             "(default 272, the paper's trial)")
    parser.add_argument("--cohort-size", type=int, default=None,
                        help="trial mode: users per independent cohort "
                             "cell (default: sized from worker count)")
    parser.add_argument("--uploads-per-user", type=int, default=8,
                        help="trial mode: uploads per user (default 8)")
    parser.add_argument("--payload", choices=["synthetic", "real"],
                        default="synthetic",
                        help="trial mode: synthetic (size-only, fleet "
                             "scale) or real content (default synthetic)")
    parser.add_argument("--writers", type=int, default=8,
                        help="shared mode: devices editing the folder "
                             "(default 8)")
    parser.add_argument("--rounds", type=int, default=20,
                        help="shared mode: edit rounds per device "
                             "(default 20)")
    parser.add_argument("--policy", default="each",
                        choices=list(_SHARED_POLICIES) + ["each"],
                        help="shared mode: conflict policy, or 'each' to "
                             "run all three (default each)")
    parser.add_argument("--churners", type=int, default=0,
                        help="shared mode: devices that crash mid-sync "
                             "once (default 0)")
    parser.add_argument("--skip-rate", type=float, default=0.0,
                        help="shared mode: probability a device sits out "
                             "a round (default 0)")
    parser.add_argument("--degrade", action="store_true",
                        help="shared mode: degradation chaos arc — run "
                             "1 slow + 1 down of the 5 clouds against the "
                             "control plane (breakers, hedged reads, "
                             "brownout writes), scrub after quiescence, "
                             "and gate on debt repayment and breaker "
                             "flapping")
    parser.add_argument("--slow-factor", type=float, default=200.0,
                        help="degrade mode: latency x / bandwidth / "
                             "factor for the slow cloud (default 200)")
    parser.add_argument("--max-transitions", type=int, default=6,
                        help="degrade mode: max breaker transitions per "
                             "cloud before flagging flapping (default 6)")
    parser.add_argument("--progress", action="store_true",
                        help="report live cells_done/users_simulated "
                             "progress counters on stderr")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: all cores, "
                             "or $REPRO_CAMPAIGN_WORKERS)")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="cells batched per pool task (default: "
                             "auto — ~4 claimable chunks per worker)")
    parser.add_argument("--json", default=None,
                        help="write per-sample results to this JSON file")
    parser.add_argument("--trace", default=None, metavar="JSONL",
                        help="record per-cell traces (merged in submission "
                             "order) to this JSONL file; convert with "
                             "tools/trace.py export --format=chrome")
    parser.add_argument("--telemetry", default=None, metavar="JSON",
                        help="shared mode: run with the streaming "
                             "telemetry pipeline and write its snapshot "
                             "(windows + health + SLO burn rates + "
                             "estimator state) to this JSON file; render "
                             "with tools/health.py")
    args = parser.parse_args(argv)

    if args.kind == "trial":
        return _run_trial_cli(args)
    if args.kind == "shared":
        return _run_shared_cli(args)
    if not args.locations:
        parser.error(f"{args.kind} mode needs at least one location")

    cells, labels = _build_cells(args)
    workers = (default_workers(len(cells)) if args.workers is None
               else args.workers)
    print(f"{len(cells)} cell(s) on {workers} worker(s)")
    with contextlib.ExitStack() as stack:
        if args.progress:
            _, progress_metrics = stack.enter_context(
                obs.isolated(tracer=False)
            )
            stack.enter_context(_Progress(progress_metrics, len(cells), 0))
        start = time.perf_counter()
        if args.trace:
            results, records, metrics = run_cells(
                cells, max_workers=workers, chunk_size=args.chunk_size,
                collect_traces=True,
            )
        else:
            results = run_cells(cells, max_workers=workers,
                                chunk_size=args.chunk_size)
        elapsed = time.perf_counter() - start

    if args.trace:
        from repro.obs import export as obs_export

        lines = obs_export.write_jsonl(records, args.trace, metrics=metrics)
        print(f"wrote {args.trace} ({lines} trace lines)")

    summarize = (_summarize_campaign if args.kind == "campaign"
                 else _summarize_transfers)
    print(f"{'location':<14}{'repeat':>7}{'seed':>12}{'samples':>9}"
          f"{'success':>9}{'avg s':>9}")
    for (location, repeat, seed), result in zip(labels, results):
        s = summarize(result)
        avg = f"{s['avg_duration_s']:.1f}" if s["avg_duration_s"] else "-"
        print(f"{location:<14}{repeat:>7}{seed:>12}{s['samples']:>9}"
              f"{s['success_rate']:>8.1%}{avg:>9}")
    total = sum(len(r) for r in results)
    print(f"{total} samples in {elapsed:.2f}s wall "
          f"({total / elapsed:.0f} samples/s)")

    if args.json:
        payload = [
            {
                "location": location, "repeat": repeat, "seed": seed,
                "samples": [asdict(s) for s in result],
            }
            for (location, repeat, seed), result in zip(labels, results)
        ]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
