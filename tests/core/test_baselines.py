"""Tests for the baseline clients the paper compares against."""

import numpy as np
import pytest

import _sched_env as sched_env
from repro.core import (
    IntuitiveMultiCloud,
    MultiCloudBenchmark,
    NativeClient,
    UniDriveConfig,
)
from repro.simkernel import Simulator

CONFIG = UniDriveConfig(theta=128 * 1024)


#: The paper's five consumer clouds (the native-client tables key on
#: these names).
NATIVE_CLOUDS = ("dropbox", "onedrive", "gdrive", "baidupcs", "dbank")


def make_env(up_speeds, seed=0, failure_rate=0.0):
    sim, clouds, conns, _ = sched_env.make_env(
        up_speeds, [failure_rate] * len(up_speeds), seed, config=None,
        cloud_ids=NATIVE_CLOUDS,
    )
    return sim, clouds, conns


def payload(size=1024 * 1024, seed=1):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def test_native_upload_download_roundtrip_timing():
    sim, clouds, conns = make_env([8.0])
    native = NativeClient(sim, conns[0])
    data = payload(512 * 1024)

    def proc():
        up = yield from native.upload("/f", data)
        down = yield from native.download("/f", len(data))
        return up, down

    up, down = sim.run_process(proc())
    assert up.succeeded and down.succeeded
    assert up.duration > 0
    # Download link is 2x the upload link here.
    assert down.duration < up.duration


def test_native_overhead_inflates_traffic():
    sim, clouds, conns = make_env([8.0])
    native = NativeClient(sim, conns[0])  # dropbox: 7.07% overhead
    data = payload(1024 * 1024)
    sim.run_process(native.upload("/f", data))
    sent = conns[0].traffic.payload_up
    assert sent >= len(data) * 1.07


def test_native_retries_through_transient_failures():
    sim, clouds, conns = make_env([8.0], seed=3, failure_rate=0.25)
    native = NativeClient(sim, conns[0])
    data = payload(256 * 1024)
    outcome = sim.run_process(native.upload("/f", data))
    assert outcome.succeeded


def test_native_gives_up_on_dead_cloud():
    sim, clouds, conns = make_env([8.0])
    clouds[0].set_available(False)
    native = NativeClient(sim, conns[0], max_retries=2)
    outcome = sim.run_process(native.upload("/f", payload(64 * 1024)))
    assert not outcome.succeeded
    assert outcome.finished_at is None


def test_native_empty_file():
    sim, clouds, conns = make_env([8.0])
    native = NativeClient(sim, conns[0])
    outcome = sim.run_process(native.upload("/empty", b""))
    assert outcome.succeeded


def test_intuitive_gated_by_slowest_cloud():
    """One crawling cloud dominates the intuitive solution's time."""
    def run(speeds):
        sim, clouds, conns = make_env(speeds)
        natives = [NativeClient(sim, c) for c in conns]
        intuitive = IntuitiveMultiCloud(sim, natives)
        outcome = sim.run_process(intuitive.upload("/f", payload()))
        assert outcome.succeeded
        return outcome.duration

    uniform = run([20.0] * 5)
    skewed = run([20.0, 20.0, 20.0, 20.0, 1.0])
    assert skewed > 3 * uniform


def test_intuitive_fails_if_any_cloud_out():
    sim, clouds, conns = make_env([10.0] * 5)
    clouds[2].set_available(False)
    natives = [NativeClient(sim, c, max_retries=2) for c in conns]
    intuitive = IntuitiveMultiCloud(sim, natives)
    outcome = sim.run_process(intuitive.upload("/f", payload(256 * 1024)))
    assert not outcome.succeeded


def test_intuitive_download_roundtrip():
    sim, clouds, conns = make_env([10.0] * 5)
    natives = [NativeClient(sim, c) for c in conns]
    intuitive = IntuitiveMultiCloud(sim, natives)
    data = payload(700 * 1024)

    def proc():
        up = yield from intuitive.upload("/f", data)
        down = yield from intuitive.download("/f", len(data))
        return up, down

    up, down = sim.run_process(proc())
    assert up.succeeded and down.succeeded


def test_benchmark_roundtrip():
    sim, clouds, conns = make_env([10.0] * 5)
    benchmark = MultiCloudBenchmark(sim, conns, CONFIG)
    data = payload(600 * 1024)

    def proc():
        up = yield from benchmark.upload("/f", data)
        down = yield from benchmark.download("/f")
        return up, down

    up, down = sim.run_process(proc())
    assert up.succeeded and down.succeeded


def test_benchmark_survives_minority_outage_on_download():
    sim, clouds, conns = make_env([10.0] * 5)
    benchmark = MultiCloudBenchmark(sim, conns, CONFIG)
    data = payload(400 * 1024)
    sim.run_process(benchmark.upload("/f", data))
    clouds[0].set_available(False)
    clouds[1].set_available(False)
    outcome = sim.run_process(benchmark.download("/f"))
    assert outcome.succeeded


def test_benchmark_unknown_download_rejected():
    sim, clouds, conns = make_env([10.0] * 5)
    benchmark = MultiCloudBenchmark(sim, conns, CONFIG)
    with pytest.raises(KeyError):
        sim.run_process(benchmark.download("/never-uploaded"))


def test_synthetic_upload_traffic_meters_pinned():
    """Zero-block views meter exactly the coded bytes: a 1 MB synthetic
    upload over flaky links of mixed speed (tail segment included)."""
    sim, clouds, conns = make_env([4.0, 8.0, 12.0, 16.0, 20.0], seed=3,
                                  failure_rate=0.1)
    benchmark = MultiCloudBenchmark(sim, conns, CONFIG)
    outcome = sim.run_process(benchmark.upload_sized("/f", 1_000_000))
    assert outcome.succeeded
    assert [c.traffic.payload_up for c in conns] == [
        333336, 333336, 87382, 333336, 333336]
    assert [c.traffic.requests for c in conns] == [12, 10, 5, 9, 9]


def test_intuitive_requires_clients():
    sim = Simulator()
    with pytest.raises(ValueError):
        IntuitiveMultiCloud(sim, [])
