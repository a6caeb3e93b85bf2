"""Link profile structures gluing the stochastic models together.

A :class:`LinkProfile` holds the *parameters* of one client-to-cloud
path; :class:`LinkConditions` instantiates the live stochastic
processes (two bandwidth directions, latency, failures) from it.  The
actual numeric tables for the paper's PlanetLab / EC2 vantage points
live in :mod:`repro.workloads.locations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bandwidth import MBPS, BandwidthProcess
from .failures import FailureModel, StressProcess
from .latency import LatencyModel

__all__ = ["LinkProfile", "LinkConditions", "MBPS"]


@dataclass(frozen=True)
class LinkProfile:
    """Parameters of one (client location, cloud) network path."""

    up_mbps: float  # mean per-connection upload rate, megabits/second
    down_mbps: float  # mean per-connection download rate
    rtt_seconds: float = 0.25  # request setup latency
    latency_jitter: float = 0.35  # lognormal sigma of setup latency
    failure_rate: float = 0.01  # base per-request failure probability
    accessible: bool = True  # False models spatial outage (e.g. GFW)
    volatility: float = 0.5  # log-space bandwidth standard deviation
    ar_coefficient: float = 0.8
    fade_probability: float = 0.02
    fade_depth: float = 8.0
    diurnal_amplitude: float = 0.15
    epoch_seconds: float = 60.0
    extra_args: dict = field(default_factory=dict)

    def scaled(self, factor: float) -> "LinkProfile":
        """A copy with bandwidth scaled by ``factor`` (what-if studies)."""
        return LinkProfile(
            up_mbps=self.up_mbps * factor,
            down_mbps=self.down_mbps * factor,
            rtt_seconds=self.rtt_seconds,
            latency_jitter=self.latency_jitter,
            failure_rate=self.failure_rate,
            accessible=self.accessible,
            volatility=self.volatility,
            ar_coefficient=self.ar_coefficient,
            fade_probability=self.fade_probability,
            fade_depth=self.fade_depth,
            diurnal_amplitude=self.diurnal_amplitude,
            epoch_seconds=self.epoch_seconds,
            extra_args=dict(self.extra_args),
        )


class LinkConditions:
    """Live stochastic processes for one client-to-cloud path."""

    def __init__(
        self,
        profile: LinkProfile,
        cloud_id: str,
        rng: np.random.Generator,
        stress: StressProcess = None,
    ):
        self.profile = profile
        self.cloud_id = cloud_id
        def bandwidth(mbps: float) -> BandwidthProcess:
            return BandwidthProcess(
                rng,
                mean_rate=mbps * MBPS,
                volatility=profile.volatility,
                ar_coefficient=profile.ar_coefficient,
                epoch=profile.epoch_seconds,
                fade_probability=profile.fade_probability,
                fade_depth=profile.fade_depth,
                diurnal_amplitude=profile.diurnal_amplitude,
            )

        self.uplink = bandwidth(profile.up_mbps)
        self.downlink = bandwidth(profile.down_mbps)
        self.latency = LatencyModel(
            rng,
            base_seconds=profile.rtt_seconds,
            jitter=profile.latency_jitter,
        )
        self.failures = FailureModel(
            rng,
            cloud_id=cloud_id,
            base_rate=profile.failure_rate,
            stress=stress,
        )
