"""The simulated multi-cloud the scheduler tests run on.

Every cloud gets one connection from the fleet builder (the i-th draws
from ``default_rng(seed + i)``) over a quiet link (:func:`profile`);
tests that pin request orders depend on exactly these seeds and link
fields.
"""

from repro.cloud import SimulatedCloud
from repro.cloud.errors import CloudError
from repro.core.config import UniDriveConfig
from repro.core.pipeline import BlockPipeline
from repro.netsim import LinkProfile
from repro.simkernel import Simulator
from repro.workloads import connect

#: Small segments for fast tests.
CONFIG = UniDriveConfig(theta=64 * 1024)
N_CLOUDS = 5
CLOUD_IDS = tuple(f"cloud{i}" for i in range(N_CLOUDS))


def profile(up_mbps, failure_rate=0.0, **overrides):
    """A quiet link: ``up_mbps`` up and twice that down, 50 ms RTT, no
    jitter, volatility, fades or diurnal swing; ``overrides`` replace
    any :class:`LinkProfile` field."""
    params = dict(
        up_mbps=up_mbps, down_mbps=2 * up_mbps, rtt_seconds=0.05,
        latency_jitter=0.0, failure_rate=failure_rate, volatility=0.0,
        fade_probability=0.0, diurnal_amplitude=0.0,
    )
    params.update(overrides)
    return LinkProfile(**params)


def make_env(up_speeds=(8.0,) * N_CLOUDS, failure_rates=None, seed=0,
             config=CONFIG, cloud_ids=CLOUD_IDS, **link):
    """One cloud per entry of ``up_speeds`` (Mbps), each with one
    connection over ``profile(up, failure rate, **link)``; returns
    ``(sim, clouds, conns, pipeline)``, the pipeline None when
    ``config`` is (clients that build their own)."""
    sim = Simulator()
    failure_rates = failure_rates or [0.0] * len(up_speeds)
    clouds = [SimulatedCloud(sim, cid) for cid in cloud_ids[:len(up_speeds)]]
    conns = connect(sim, clouds, seed, [
        profile(up, rate, **link) for up, rate in zip(up_speeds, failure_rates)
    ])
    pipeline = None if config is None else BlockPipeline(config, len(clouds))
    return sim, clouds, conns, pipeline


def log_requests(sim, conns):
    """Wrap every connection's upload and download; the returned list
    collects ``(start, end, cloud, path, outcome)`` per request, where
    a request whose worker was killed ends ``"cancelled"``."""
    log = []

    def logged(conn, raw):
        def request(path, *args, **kwargs):
            start = sim.now
            try:
                result = yield from raw(path, *args, **kwargs)
            except CloudError as exc:
                log.append((start, sim.now, conn.cloud_id, path,
                            type(exc).__name__))
                raise
            except GeneratorExit:
                log.append((start, sim.now, conn.cloud_id, path,
                            "cancelled"))
                raise
            log.append((start, sim.now, conn.cloud_id, path, "ok"))
            return result

        return request

    for conn in conns:
        conn.upload = logged(conn, conn.upload)
        conn.download = logged(conn, conn.download)
    return log
