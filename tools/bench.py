#!/usr/bin/env python
"""Kernel microbenchmarks: absolute numbers for the leaf routines.

Anything end-to-end — a ``sync()`` round, a campaign, dispatch scans per
block, simulated events per second — is measured by ``syncbench/``
(contract in ``BENCHMARK.json``).  This file times the kernels under
those workloads in isolation, so a codec or chunking change can be read
off without a whole sync around it:

* ``gf_matmul``  — GF(256) matrix product, MB/s of output.
* ``codec``      — Reed-Solomon (10, 3) encode, per-block encode through
                   a cached ``prepare()``, and decode, MB/s of a 4 MiB
                   segment.
* ``chunking``   — ``Segmenter(4 MiB).cut_points`` MB/s over a 64 MiB
                   random buffer: the cutter a sync runs, which hashes
                   only each segment's admissible band.
* ``crypto``     — metadata seal and open (DES in counter mode under a
                   synthetic IV) microseconds per block over 12 533
                   blocks, one fold's image.
* ``hash``       — ``block_hash`` microseconds per call: the call floor
                   (64 bytes) and one block of a 4 MiB segment.
* ``guards``     — nanoseconds per disabled ``if OBS.enabled:`` guard,
                   per unguarded fan-out fact on the disabled hub, and
                   per closed-breaker ``admits()``.
* ``startup``    — seconds and peak RSS of ``import repro,
                   repro.workloads`` in a fresh interpreter (median of
                   5): what every process pays before any work.
* ``trial_rss``  — peak RSS of a 10 000-user cohorted ``run_trial`` in a
                   child interpreter.  No syncbench workload reaches that
                   population, so its ceiling is the one check here that
                   sets the exit status.

Numbers are host-dependent and isolated: inside a sync the same kernels
share the cache and the allocator with everything else.  Compare them
only with earlier runs on the same host.

Run ``python tools/bench.py``; it takes no options, prints one line per
section and writes ``benchmarks/results/BENCH_kernels.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.chunking import Segmenter  # noqa: E402
from repro.codec import ReedSolomonCode  # noqa: E402
from repro.codec import matrix as gfm  # noqa: E402
from repro.core.config import UniDriveConfig  # noqa: E402
from repro.core.degrade import DegradeController  # noqa: E402
from repro.core.pipeline import block_hash  # noqa: E402
from repro.crypto import decrypt_cbc, encrypt_cbc, synthetic_iv  # noqa: E402

_MB = 1024 * 1024
RESULTS_PATH = os.path.join(
    _ROOT, "benchmarks", "results", "BENCH_kernels.json"
)

#: Memory ceiling for the cohorted trial (MB): the smallest power of two
#: at least twice the measured peak.  10 000 users in 500-user cohorts
#: peak around 52 MB (each link keeps a few generator states per
#: bandwidth chunk drawn, no shocks); the ceiling leaves headroom for
#: interpreter/numpy baseline drift while still catching any regression
#: that re-materializes per-user records or per-link shock buffers.
TRIAL_RSS_LIMIT_MB = 128.0


def _pin_allocator():
    """Stop glibc from trimming/mmapping the multi-MB bench buffers.

    The encode path returns ~14 MB of fresh ``bytes`` per call; with
    default thresholds glibc alternates between serving those from the
    heap and from fresh ``mmap`` regions, and every mmap'd round pays
    page-fault cost that can double the measured wall.  Raising
    ``M_TRIM_THRESHOLD`` and ``M_MMAP_THRESHOLD`` keeps the freed pages
    resident so repeated rounds measure the kernels, not the allocator.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: never trim
        libc.mallopt(-3, 64 * _MB)  # M_MMAP_THRESHOLD: reuse the heap
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        pass


def _best_of(fn, rounds):
    """Best-of-N wall time in seconds (minimum is the stable estimator)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _random_bytes(seed, size):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def bench_gf_matmul():
    width = 4 * _MB
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=(10, 3), dtype=np.uint8)
    b = rng.integers(0, 256, size=(3, width), dtype=np.uint8)
    wall = _best_of(lambda: gfm.matmul(a, b), 3)
    return {
        "shape": [list(a.shape), list(b.shape)],
        "mb_per_s": a.shape[0] * width / _MB / wall,
    }


def bench_codec():
    seg = 4 * _MB
    rounds = 12  # best-of needs a few samples on virtualized hosts
    code = ReedSolomonCode(10, 3)
    data = _random_bytes(1, seg)

    def blocks_via_prepare():
        state = code.prepare(data)
        for index in range(code.n):
            state.block(index)

    blocks = code.encode(data)
    subset = {0: blocks[0], 4: blocks[4], 9: blocks[9]}
    mb = seg / _MB
    return {
        "segment_mb": mb,
        "n": code.n,
        "k": code.k,
        "encode_mb_per_s": mb / _best_of(lambda: code.encode(data), rounds),
        "encode_blocks_mb_per_s": mb / _best_of(blocks_via_prepare, rounds),
        "decode_mb_per_s":
            mb / _best_of(lambda: code.decode(subset, seg), rounds),
    }


def bench_chunking():
    size = 64 * _MB
    data = _random_bytes(2, size)
    segmenter = Segmenter(4 * _MB)
    return {
        "cut_mb_per_s":
            size / _MB / _best_of(lambda: segmenter.cut_points(data), 3),
    }


def bench_crypto():
    blocks = 12_533  # a 150-file folder image, padded
    key = b"benchkey"
    plaintext = _random_bytes(3, 8 * blocks - 1)

    def seal():
        return encrypt_cbc(key, plaintext, synthetic_iv(key, plaintext))

    blob = seal()
    return {
        "blocks": blocks,
        "seal_us_per_block": _best_of(seal, 5) / blocks * 1e6,
        "open_us_per_block": _best_of(
            lambda: decrypt_cbc(key, blob), 5) / blocks * 1e6,
    }


def bench_hash():
    floor = b"\xa5" * 64
    # One block of a 4 MiB segment at k = 3.
    block = b"\xa5" * (4 * _MB // 3 + 1)
    calls = 256
    return {
        "block_bytes": len(block),
        "call_floor_us": _best_of(
            lambda: [block_hash(floor) for _ in range(calls)], 5
        ) / calls * 1e6,
        "block_us": _best_of(lambda: block_hash(block), 5) * 1e6,
    }


def bench_guards():
    """Per-call cost of what library hot loops pay with the hub disabled.

    Three shapes, each net of an empty loop over the same range: the
    guarded site (``if OBS.enabled:`` — one attribute read), an
    unguarded fan-out fact (early-out inside the hub method), and the
    degrade plane's closed-breaker ``admits()`` that rides on every
    scheduler peek of a client's batches.
    """
    obs.disable()
    n = 1_000_000
    rounds = 5
    span = range(n)
    hub = obs.OBS
    degrade = DegradeController(UniDriveConfig())
    degrade.breaker("cloud0")

    def loop_empty():
        for _ in span:
            pass

    def loop_guard():
        for _ in span:
            if hub.enabled:
                hub.fault("c", 0.0, "outage-begin")

    def loop_fact():
        for _ in span:
            hub.fault("c", 0.0, "outage-begin")

    def loop_admits():
        for _ in span:
            degrade.admits("cloud0", 0.0)

    base = _best_of(loop_empty, rounds)

    def per_call_ns(loop):
        return max(_best_of(loop, rounds) - base, 0.0) / n * 1e9

    return {
        "calls": n,
        "guard_ns": per_call_ns(loop_guard),
        "fanout_fact_ns": per_call_ns(loop_fact),
        "admits_ns": per_call_ns(loop_admits),
    }


_CHILD_PRELUDE = """\
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])

def self_peak_kb():
    try:
        with open('/proc/self/status') as fh:
            for line in fh:
                if line.startswith('VmHWM:'):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

_STARTUP_SCRIPT = _CHILD_PRELUDE + """\
start = time.perf_counter()
import repro, repro.workloads
print(json.dumps({'import_s': time.perf_counter() - start,
                  'import_rss_mb': self_peak_kb() / 1024.0}))
"""

_TRIAL_SCRIPT = _CHILD_PRELUDE + """\
from repro.workloads import TrialFleetStats, run_trial

start = time.perf_counter()
summary = run_trial(n_users=int(sys.argv[2]), days=1.0, uploads_per_user=1,
                    seed=2026, reducer=TrialFleetStats(),
                    cohort_size=int(sys.argv[3]), payload='synthetic',
                    max_workers=2)
wall = time.perf_counter() - start
rss_kb = max(self_peak_kb(),
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(json.dumps({'wall_s': wall, 'peak_rss_mb': rss_kb / 1024.0,
                  'uploads': summary.uploads,
                  'file_success_rate': summary.file_success_rate}))
"""


def _child(script, *args):
    """The last stdout line of ``script`` run in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", script, _SRC, *map(str, args)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def bench_startup():
    """Cold import cost, the median of 5 fresh interpreters."""
    runs = [_child(_STARTUP_SCRIPT) for _ in range(5)]
    return {
        "runs": len(runs),
        "import_s": statistics.median(r["import_s"] for r in runs),
        "import_rss_mb": statistics.median(r["import_rss_mb"] for r in runs),
    }


def bench_trial_rss():
    """Peak-RSS guard: a cohorted fleet trial must stay memory-bounded.

    Runs a synthetic-payload ``run_trial`` in a child interpreter (so
    this process's own allocator high-water mark — megabytes of bench
    buffers — cannot mask the measurement) and reports the peak RSS
    across the child and its pool workers.  The streaming reducer is
    the point: per-user records are folded into fixed-size aggregates
    cohort by cohort, so peak memory tracks the cohort size, not the
    population.

    The child's own peak is read from ``/proc/self/status`` ``VmHWM``
    (which execve resets), not ``getrusage(RUSAGE_SELF)``: Linux folds
    the pre-exec mm's high-water mark into ``ru_maxrss``, and under
    ``posix_spawn``/``vfork`` that mm *is* the launching process's.  The
    pool workers are plain forks (no exec), so ``RUSAGE_CHILDREN`` stays
    trustworthy for them.
    """
    users, cohort = 10_000, 500
    child = _child(_TRIAL_SCRIPT, users, cohort)
    return {
        "users": users,
        "cohort_size": cohort,
        "trial_wall_s": child["wall_s"],
        "users_per_s": users / child["wall_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "rss_limit_mb": TRIAL_RSS_LIMIT_MB,
        "uploads": child["uploads"],
        "file_success_rate": child["file_success_rate"],
    }


def main():
    _pin_allocator()
    start = time.perf_counter()
    matmul = bench_gf_matmul()
    codec = bench_codec()
    chunk = bench_chunking()
    crypto = bench_crypto()
    hashing = bench_hash()
    guards = bench_guards()
    startup = bench_startup()
    trial = bench_trial_rss()
    within_limit = trial["peak_rss_mb"] <= trial["rss_limit_mb"]
    results = {
        "gf_matmul": matmul,
        "codec": codec,
        "chunking": chunk,
        "crypto": crypto,
        "hash": hashing,
        "guards": guards,
        "startup": startup,
        "trial_rss": trial,
        "checks": {"trial_peak_rss_under_limit": within_limit},
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")

    print(f"gf_matmul:  {matmul['mb_per_s']:8.1f} MB/s")
    print(f"encode:     {codec['encode_mb_per_s']:8.1f} MB/s "
          f"({codec['encode_blocks_mb_per_s']:.1f} block by block); "
          f"decode {codec['decode_mb_per_s']:.1f} MB/s "
          f"on {codec['segment_mb']:.0f} MiB segments")
    print(f"chunking:   {chunk['cut_mb_per_s']:8.1f} MB/s cut_points, "
          f"theta 4 MiB")
    print(f"crypto:     {crypto['seal_us_per_block']:8.2f} us per "
          f"block metadata seal, "
          f"{crypto['open_us_per_block']:.2f} us open "
          f"({crypto['blocks']} blocks)")
    print(f"hash:       {hashing['block_us']:8.1f} us per "
          f"{hashing['block_bytes']}-byte block "
          f"(call floor {hashing['call_floor_us']:.2f} us)")
    print(f"guards:     {guards['guard_ns']:8.1f} ns disabled guard, "
          f"{guards['fanout_fact_ns']:.1f} ns unguarded fact, "
          f"{guards['admits_ns']:.1f} ns admits()")
    print(f"startup:    {startup['import_s']:8.3f} s cold import, "
          f"{startup['import_rss_mb']:.1f} MB peak")
    print(f"trial rss:  {trial['peak_rss_mb']:8.1f} MB peak for "
          f"{trial['users']} users in {trial['cohort_size']}-user cohorts "
          f"(limit {trial['rss_limit_mb']:.0f}), "
          f"{trial['users_per_s']:.0f} users/s")
    print(f"wrote {RESULTS_PATH} in {time.perf_counter() - start:.1f}s")
    if not within_limit:
        print("FAILED: trial_peak_rss_under_limit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
