"""Hot-path microbenchmarks (GF matmul, codec, chunking, dispatch).

Pytest wrapper around :mod:`tools.bench`: runs each section once under
the pytest-benchmark timer, renders the before/after table, and asserts
the acceptance bars — >= 2.5x encode speedup and >= 225 MB/s absolute
encode throughput on 4 MB segments with n >= 10 (the fused pair-table
kernel's conservative floor; ``tools/bench.py`` holds the tighter
300/500 MB/s bars), streaming chunking within 2x of batch over the
same bytes with identical cut points, and dispatch scans per block
flat (within 2x) from a 10-file to a 200-file upload batch and from a
10- to a 640-segment download on 5/10/20/40/80 Mbps links.

Run with ``BENCH_QUICK=1`` for the CI-sized variant.
"""

import os
import sys

_TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"
)
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

import bench  # noqa: E402

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")


def test_gf_matmul_throughput(run_once, report, fmt_cell):
    result = run_once(lambda: bench.bench_gf_matmul(QUICK))
    report("GF(256) matmul throughput (MB/s)", [
        f"{'product table':<16}{fmt_cell(result['table_mb_per_s'])}",
        f"{'log/exp legacy':<16}{fmt_cell(result['logexp_mb_per_s'])}",
        f"{'speedup':<16}{fmt_cell(result['speedup'])}x",
    ])
    assert result["speedup"] > 1.5


def test_encode_decode_throughput(run_once, report, fmt_cell):
    result = run_once(lambda: bench.bench_encode_decode(QUICK))
    report(
        f"RS({result['n']},{result['k']}) codec throughput, "
        f"{result['segment_mb']:g} MB segments (MB/s)",
        [
            f"{'encode':<22}{fmt_cell(result['encode_mb_per_s'])}",
            f"{'encode (legacy)':<22}"
            f"{fmt_cell(result['encode_legacy_mb_per_s'])}",
            f"{'blocks, cached':<22}"
            f"{fmt_cell(result['encode_blocks_cached_mb_per_s'])}",
            f"{'blocks, legacy':<22}"
            f"{fmt_cell(result['encode_blocks_legacy_mb_per_s'])}",
            f"{'decode':<22}{fmt_cell(result['decode_mb_per_s'])}",
            f"{'encode speedup':<22}{fmt_cell(result['encode_speedup'])}x",
        ],
    )
    # The overhaul's headline number was ~3x on 4 MB segments; the
    # regression bar sits at 2.5x because the exact ratio against the
    # in-file legacy twin drifts with host CPU state (quick mode's
    # smaller segments sit closer to the shard-build overhead still).
    assert result["encode_speedup"] >= (2.0 if QUICK else 2.5)
    # Absolute floors for the fused pair-table kernel: 3x the
    # pre-fusion steady state (75 / 263 MB/s).  Only meaningful at the
    # full 4 MB segment size.
    if not QUICK:
        assert result["encode_mb_per_s"] >= 225.0
        assert result["decode_mb_per_s"] >= 375.0


def test_chunking_throughput(run_once, report, fmt_cell):
    result = run_once(lambda: bench.bench_chunking(QUICK))
    report("Chunking throughput (MB/s)", [
        f"{'buzhash_all batch':<20}{fmt_cell(result['batch_mb_per_s'])}",
        f"{'stream (64KB feeds)':<20}"
        f"{fmt_cell(result['stream_ring_mb_per_s'])}",
        f"{'byte ring (legacy)':<20}"
        f"{fmt_cell(result['stream_byte_mb_per_s'])}",
        f"{'byte pop(0) legacy':<20}"
        f"{fmt_cell(result['stream_pop0_mb_per_s'])}",
    ])
    # Streaming must keep up with batch (within 2x over the same
    # bytes; in practice the 64 KB working set keeps it cache-resident
    # and it comes out ahead) and must cut where batch cuts.
    assert result["stream_vs_batch"] <= 2.0
    assert result["stream_cuts_identical"]
    assert result["stream_speedup"] > 1.0


def test_dispatch_scans_flat(run_once, report, fmt_cell):
    result = run_once(lambda: bench.bench_dispatch(QUICK))
    rows = []
    for key in ("cursor_small", "cursor_large",
                "reference_small", "reference_large"):
        run = result[key]
        rows.append(
            f"{key:<18}{run['files']:>6} files"
            f"{fmt_cell(run['scans_per_block'])} scans/block"
            f"{fmt_cell(run['blocks_per_s'], 12, 0)} blocks/s"
        )
    rows.append(f"{'cursor flatness':<18}"
                f"{fmt_cell(result['cursor_flatness'])}x")
    rows.append(f"{'reference growth':<18}"
                f"{fmt_cell(result['reference_growth'])}x")
    for key in ("download_small", "download_large"):
        run = result[key]
        rows.append(
            f"{key:<18}{run['segments']:>6} segs "
            f"{fmt_cell(run['scans_per_block'])} scans/block"
            f"{fmt_cell(run['blocks_per_s'], 12, 0)} blocks/s"
        )
    rows.append(f"{'download flatness':<18}"
                f"{fmt_cell(result['download_flatness'])}x")
    report("Dispatch cost vs batch size", rows)
    assert result["cursor_flatness"] < 2.0
    assert result["download_flatness"] < 2.0


def test_end_to_end_sync(run_once, report, fmt_cell):
    result = run_once(lambda: bench.bench_end_to_end(QUICK))
    report("End-to-end batch sync", [
        f"{'files':<16}{result['files']}",
        f"{'payload MB':<16}{fmt_cell(result['payload_mb'])}",
        f"{'sync MB/s':<16}{fmt_cell(result['payload_mb_per_s'])}",
        f"{'file ops/s':<16}{fmt_cell(result['files_per_s'], 9, 0)}",
    ])
    assert result["payload_mb_per_s"] > 0
