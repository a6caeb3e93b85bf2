"""syncbench command line: one command, four workloads, every metric.

    python3 syncbench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last stdout line is the result JSON
        (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
    python3 syncbench/run.py [--reference]
        all four workloads, both passes, a table and out/latest.json
    python3 syncbench/run.py --selfcheck
        the whole benchmark twice; fails unless the two sets agree

Every repeat of every workload runs in its own child interpreter
(``--child``): the program keeps process-global LRUs (decrypted
metadata blobs, decode matrices, fused codec plans) that a second
repeat of the same seed would be served from, and ``VmHWM`` is only
that repeat's own when the interpreter is fresh.  This process only
aggregates.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # child set-up time counts imports too

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: sys.path[0] is syncbench/, where trace.py would
    # shadow the stdlib module of that name.
    sys.path[0] = str(ROOT)
elif str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from syncbench import stats  # noqa: E402

RESULTS = ROOT / "syncbench" / "results"
OUT = ROOT / "syncbench" / "out"

#: Seed used when none is given (the reference results' seed).
DEFAULT_SEED = 20150713
#: Repeats per workload in the all-workloads mode (reference, selfcheck).
REPEATS = 5
#: Timed-phase length on the reference host.  ``--seconds`` buys timed
#: seconds, so a run makes ``seconds / phase`` repeats: the short ingest
#: phase, whose page-fault-heavy wall time is also the noisiest, gets
#: six at the contract's 18 s where the others get three.
NOMINAL_PHASE_S = {"ingest_large": 3.0, "fanout_small": 6.5,
                   "edit_steady": 5.5, "trial_fleet": 6.5}
#: A child gets this long; the driver allows a whole run 180 s.
CHILD_TIMEOUT_S = 170
#: Workloads whose links never fail: any failed op is a wrong result.
FAILURE_FREE = ("ingest_large", "fanout_small", "edit_steady")
#: End-to-end metrics on the host clock (median of the repeats) ...
HOST_CLOCK = ("setup_s", "wall_s", "peak_rss_mb")
#: ... those every repeat of a seed must report bit for bit alike ...
REPEAT_EXACT = ("op_sim_s_p50", "op_sim_s_p95", "wire_bytes_per_user_byte",
                "stored_bytes_per_user_byte")
#: ... and all that are exact for a fixed seed.
EXACT = REPEAT_EXACT + ("ok_op_share",)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- child: one repeat in this interpreter -----------------------------------


def _peak_rss_mb() -> float:
    """``VmHWM`` of this process (``ru_maxrss`` would inherit the
    launcher's high-water mark across fork/exec)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_child(workload: str, seed: int, sizes: Dict[str, int],
              traced: bool, out_dir: Path) -> dict:
    from syncbench import workloads

    tracer = None
    run = workloads.Run()
    if traced:
        from syncbench import layers
        from syncbench.trace import Tracer

        tracer = Tracer()

        def set_op(index: int) -> None:
            tracer.op = index

        run = workloads.Run(lambda: layers.install(tracer), set_op)
    workloads.WORKLOADS[workload](seed, sizes, run)
    result = {
        "workload": workload, "seed": seed, "sizes": sizes,
        "traced": traced,
        "setup_s": run.setup_done - _STARTED,
        "wall_s": run.wall_s,
        "cpu_user_s": run.cpu_s[0], "cpu_sys_s": run.cpu_s[1],
        "peak_rss_mb": _peak_rss_mb(),
        "ops": run.ops, "failed_ops": run.failed_ops,
        "oracle_ok": run.oracle_ok,
        "op_sim_s_p50": stats.nearest_rank(run.op_sim_s, 0.5),
        "op_sim_s_p95": stats.p95(run.op_sim_s),
        "wire_bytes_per_user_byte":
            run.counts["cloud.wire_bytes"] / run.user_bytes,
        "stored_bytes_per_user_byte": run.stored_bytes / run.live_bytes,
        "counts": run.counts,
    }
    if tracer is not None:
        result["trace_counts"] = dict(tracer.counts)
        result["self_seconds"] = tracer.self_seconds()
        result["table"] = tracer.table()
        out_dir.mkdir(parents=True, exist_ok=True)
        trace = tracer.chrome_trace(origin=run.phase_start)
        trace["metadata"] = {"workload": workload, "seed": seed,
                             "sizes": sizes, "clock": "host"}
        (out_dir / f"trace_{workload}.json").write_text(
            json.dumps(trace, separators=(",", ":")) + "\n"
        )
    return result


# -- parent: spawn, aggregate, report ----------------------------------------


def spawn(workload: str, seed: int, sizes: Dict[str, int], traced: bool,
          out_dir: Path) -> dict:
    """One repeat in a fresh interpreter; returns its result dict."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0", "--out-dir", str(out_dir),
    ]
    for key, value in sizes.items():
        command += ["--size", f"{key}={value}"]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    done = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} child exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(runs: List[dict]) -> Dict[str, float]:
    """Aggregate untraced repeats of one (workload, seed)."""
    values = {name: statistics.median([r[name] for r in runs])
              for name in HOST_CLOCK}
    values.update({name: runs[0][name] for name in REPEAT_EXACT})
    values["ok_op_share"] = 1.0 - (
        sum(r["failed_ops"] for r in runs) / sum(r["ops"] for r in runs)
    )
    return values


def check(workload: str, runs: List[dict]) -> List[str]:
    """Why this set of repeats is not a correct result (empty if it is)."""
    problems = []
    first = runs[0]
    for index, run in enumerate(runs):
        if not run["oracle_ok"]:
            problems.append(f"repeat {index}: oracle failed")
        if workload in FAILURE_FREE and run["failed_ops"]:
            problems.append(
                f"repeat {index}: {run['failed_ops']} failed ops on "
                f"failure-free links"
            )
        # Same seed, same inputs: sim-clock metrics and byte meters are
        # exact, in either pass.
        for key in REPEAT_EXACT + ("ops", "failed_ops", "counts"):
            if run[key] != first[key]:
                problems.append(
                    f"repeat {index}: {key} {run[key]!r} differs from "
                    f"repeat 0's {first[key]!r}"
                )
    return problems


def per_layer(untraced_wall_s: float, traced: dict) -> Dict[str, float]:
    from syncbench import layers

    return layers.layer_metrics(
        traced["trace_counts"], traced["self_seconds"], traced["counts"],
        traced["wall_s"], untraced_wall_s,
    )


def driver_run(workload: str, seed: int, seconds: float, trace: bool,
               sizes: Dict[str, int]) -> int:
    """The contract's single run; prints the result JSON last."""
    bench = spec()
    if trace:
        runs = [spawn(workload, seed, sizes, False, OUT),
                spawn(workload, seed, sizes, True, OUT)]
        values = per_layer(runs[0]["wall_s"], runs[1])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        repeats = max(1, round(seconds / NOMINAL_PHASE_S[workload]))
        runs = [spawn(workload, seed, sizes, False, OUT)
                for _ in range(repeats)]
        values = end_to_end(runs)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    problems = check(workload, runs)
    for problem in problems:
        print(f"syncbench: {workload}: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{workload:13s} {name:34s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["failed_ops"] for r in runs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if not problems else 1


# -- all workloads, reference, selfcheck -------------------------------------


def host() -> dict:
    import numpy

    model = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def full_run(seed: int, out_dir: Path) -> dict:
    """Every workload: ``REPEATS`` untraced repeats, then a traced pass."""
    from syncbench import workloads

    document = {"seed": seed, "repeats": REPEATS, "host": host(),
                "sizes": workloads.SIZES, "workloads": {}}
    for workload, sizes in workloads.SIZES.items():
        runs = [spawn(workload, seed, sizes, False, out_dir)
                for _ in range(REPEATS)]
        traced = spawn(workload, seed, sizes, True, out_dir)
        problems = check(workload, runs + [traced])
        entry = {
            "correct": not problems, "problems": problems,
            "ops": runs[0]["ops"], "failed_ops": runs[0]["failed_ops"],
            "failed_op_share": runs[0]["failed_ops"] / runs[0]["ops"],
            "end_to_end": end_to_end(runs),
            "host_clock_repeats": {
                name: [r[name] for r in runs]
                for name in HOST_CLOCK + ("cpu_user_s", "cpu_sys_s")
            },
            "per_layer": per_layer(
                statistics.median([r["wall_s"] for r in runs]), traced
            ),
            "layer_table": traced["table"],
        }
        document["workloads"][workload] = entry
        _write_layer_table(out_dir, workload, traced)
        _print_entry(workload, entry)
    return document


def _write_layer_table(out_dir: Path, workload: str, traced: dict) -> None:
    lines = [f"# {workload}: host self time by layer, traced pass "
             f"(wall {traced['wall_s']:.3f} s, seed {traced['seed']})",
             f"{'layer':20s} {'span':16s} {'calls':>9s} {'resumes':>10s} "
             f"{'busy_s':>9s} {'self_s':>9s} {'share':>6s}"]
    for row in traced["table"]:
        lines.append(
            f"{row['layer']:20s} {row['span']:16s} {row['calls']:9d} "
            f"{row['resumes']:10d} {row['busy_s']:9.3f} "
            f"{row['self_s']:9.3f} {row['self_s'] / traced['wall_s']:6.1%}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"layers_{workload}.txt").write_text("\n".join(lines) + "\n")


def _print_entry(workload: str, entry: dict) -> None:
    bench = spec()
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    for group in ("end_to_end", "per_layer"):
        for name, value in entry[group].items():
            print(f"{workload:13s} {name:34s} {value:.6g} {units[name]}")
    for problem in entry["problems"]:
        print(f"syncbench: {workload}: {problem}", file=sys.stderr)


def selfcheck(seed: int) -> int:
    """Run everything twice; the sets must agree within the bounds."""
    from syncbench import layers

    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [full_run(seed, OUT) for _ in range(2)]
    failures: List[str] = []
    noise = {"seed": seed, "repeats": REPEATS, "host": sets[0]["host"],
             "sizes": sets[0]["sizes"], "workloads": {}}
    for workload in sets[0]["workloads"]:
        a, b = (s["workloads"][workload] for s in sets)
        if not (a["correct"] and b["correct"]):
            failures.append(f"{workload}: a set is not correct")
        for name in EXACT:
            if a["end_to_end"][name] != b["end_to_end"][name]:
                failures.append(f"{workload}: exact metric {name} differs")
        for name, value in a["per_layer"].items():
            if layers.is_exact(name) and value != b["per_layer"][name]:
                failures.append(f"{workload}: layer count {name} differs")
        spread = {}
        for name in HOST_CLOCK:
            first, second = a["end_to_end"][name], b["end_to_end"][name]
            drift = abs(second - first) / first
            if drift > bounds[name]:
                failures.append(
                    f"{workload}: {name} medians {first:.4g} and "
                    f"{second:.4g} differ by {drift:.1%} > {bounds[name]}"
                )
            pooled = (a["host_clock_repeats"][name]
                      + b["host_clock_repeats"][name])
            spread[name] = {
                "medians": [first, second], "drift": drift,
                "n": len(pooled),
                "quartile_spread": stats.quartile_spread(pooled),
            }
        noise["workloads"][workload] = spread
    noise["passed"] = not failures
    noise["failures"] = failures
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "noise.json").write_text(json.dumps(noise, indent=1) + "\n")
    for failure in failures:
        print(f"selfcheck: {failure}", file=sys.stderr)
    print("selfcheck:", "passed" if not failures else "FAILED")
    return 0 if not failures else 1


# -- entry point ---------------------------------------------------------------


def _sizes(workload: str, overrides: List[str]) -> Dict[str, int]:
    from syncbench import workloads

    sizes = dict(workloads.SIZES[workload])
    for item in overrides:
        key, _, value = item.partition("=")
        if key not in sizes:
            raise SystemExit(
                f"--size {key}: {workload} has sizes {sorted(sizes)}"
            )
        sizes[key] = int(value)
    return sizes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", action="append", default=[],
                        metavar="KEY=N", help="run --workload at another "
                        "size (never comparable with the reference)")
    parser.add_argument("--reference", action="store_true",
                        help="write results/reference.json and traces")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", type=Path, default=OUT,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck(args.seed)
    if args.workload is None:
        out_dir = RESULTS if args.reference else OUT
        document = full_run(args.seed, out_dir)
        name = "reference.json" if args.reference else "latest.json"
        (out_dir / name).write_text(json.dumps(document, indent=1) + "\n")
        return 0 if all(w["correct"]
                        for w in document["workloads"].values()) else 1
    sizes = _sizes(args.workload, args.size)
    if args.child:
        print(json.dumps(run_child(args.workload, args.seed, sizes,
                                   bool(args.trace), args.out_dir)))
        return 0
    seconds = args.seconds or spec()["run_seconds"]
    return driver_run(args.workload, args.seed, seconds, bool(args.trace),
                      sizes)


if __name__ == "__main__":
    sys.exit(main())
