"""Per-(location, cloud) link profiles for the paper's vantage points.

The numeric tables below are *derived from* the qualitative and
quantitative findings of the paper's measurement study (§3.2) and
evaluation (§7):

* spatial disparity up to ~60x between clouds at one location;
* no always-winner: Dropbox leads at Princeton, OneDrive at Beijing;
* the two China clouds (BaiduPCS, DBank) crawl — or are outright
  inaccessible — outside Asia, while US clouds degrade badly (≈90%
  request success) inside China;
* Google Drive serves from edge POPs, so it is decent almost
  everywhere; Dropbox is hosted in two US Amazon data centers, so its
  performance falls off with distance from the US;
* EC2 download links are capped at 40 Mbps in the paper's rented VMs —
  modelled as per-connection download rates around 8 Mbps (5
  connections), which reproduces the smaller download-side improvement.

Absolute values are plausible 2013-era consumer numbers; the
reproduction targets *shape*, not absolute testbed numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cloud import CloudConnection, SimulatedCloud
from ..netsim import MBPS, LinkProfile, SharedNic, StressProcess
from ..simkernel import Simulator

__all__ = [
    "CLOUD_IDS",
    "PLANETLAB_NODES",
    "EC2_NODES",
    "link_profile",
    "location_profiles",
    "make_clouds",
    "connect_location",
    "make_stress",
]

CLOUD_IDS = ["dropbox", "onedrive", "gdrive", "baidupcs", "dbank"]

# (up_mbps, down_mbps, rtt_s, failure_rate[, accessible])
_P = lambda up, down, rtt, fail, acc=True: LinkProfile(  # noqa: E731
    up_mbps=up, down_mbps=down, rtt_seconds=rtt, failure_rate=fail,
    accessible=acc,
)

#: 13 PlanetLab nodes in 10 countries across 5 continents (§3.2).
PLANETLAB: Dict[str, Dict[str, LinkProfile]] = {
    "princeton": {
        "dropbox": _P(10.0, 24.0, 0.10, 0.010),
        "onedrive": _P(5.0, 16.0, 0.12, 0.012),
        "gdrive": _P(7.0, 20.0, 0.08, 0.010),
        "baidupcs": _P(0.5, 1.6, 0.45, 0.050),
        "dbank": _P(0.3, 1.0, 0.55, 0.080),
    },
    "losangeles": {
        "dropbox": _P(3.6, 12.0, 0.14, 0.012),  # 2.76x slower than Princeton
        "onedrive": _P(6.0, 15.0, 0.11, 0.012),
        "gdrive": _P(8.0, 18.0, 0.08, 0.010),
        "baidupcs": _P(0.8, 2.4, 0.38, 0.045),
        "dbank": _P(0.5, 1.4, 0.50, 0.070),
    },
    "toronto": {
        "dropbox": _P(8.0, 20.0, 0.12, 0.010),
        "onedrive": _P(6.5, 15.0, 0.12, 0.011),
        "gdrive": _P(7.5, 18.0, 0.09, 0.010),
        "baidupcs": _P(0.5, 1.5, 0.48, 0.055),
        "dbank": _P(0.3, 0.9, 0.60, 0.085),
    },
    "saopaulo": {
        "dropbox": _P(2.5, 8.0, 0.22, 0.020),
        "onedrive": _P(3.0, 9.0, 0.20, 0.018),
        "gdrive": _P(4.5, 12.0, 0.14, 0.014),
        "baidupcs": _P(0.3, 0.9, 0.60, 0.070),
        "dbank": _P(0.2, 0.6, 0.70, 0.095),
    },
    "cambridge_uk": {
        "dropbox": _P(4.5, 14.0, 0.16, 0.012),
        "onedrive": _P(6.0, 16.0, 0.12, 0.011),
        "gdrive": _P(7.0, 18.0, 0.09, 0.010),
        "baidupcs": _P(0.4, 1.2, 0.52, 0.055),
        "dbank": _P(0.3, 0.8, 0.60, 0.085),
    },
    "paris": {
        "dropbox": _P(4.0, 13.0, 0.17, 0.013),
        "onedrive": _P(5.5, 15.0, 0.13, 0.012),
        "gdrive": _P(6.5, 17.0, 0.10, 0.010),
        "baidupcs": _P(0.4, 1.1, 0.54, 0.058),
        "dbank": _P(0.3, 0.8, 0.62, 0.088),
    },
    "beijing": {
        # Roles reverse: OneDrive beats Dropbox; US clouds ~90% success.
        "dropbox": _P(0.8, 2.5, 0.40, 0.100),
        "onedrive": _P(4.0, 10.0, 0.18, 0.050),
        "gdrive": _P(0.7, 2.0, 0.42, 0.100),
        "baidupcs": _P(12.0, 30.0, 0.05, 0.030),
        "dbank": _P(7.0, 18.0, 0.08, 0.060),
    },
    "shanghai": {
        "dropbox": _P(0.6, 2.0, 0.42, 0.100),
        "onedrive": _P(3.5, 9.0, 0.19, 0.050),
        "gdrive": _P(0.6, 1.8, 0.44, 0.100),
        "baidupcs": _P(15.0, 35.0, 0.04, 0.028),
        "dbank": _P(8.0, 20.0, 0.07, 0.055),
    },
    "singapore_pl": {
        "dropbox": _P(2.0, 7.0, 0.24, 0.018),
        "onedrive": _P(3.5, 10.0, 0.18, 0.015),
        "gdrive": _P(5.0, 14.0, 0.12, 0.012),
        "baidupcs": _P(2.5, 7.0, 0.20, 0.040),
        "dbank": _P(1.5, 4.0, 0.28, 0.060),
    },
    "tokyo_pl": {
        "dropbox": _P(2.5, 8.0, 0.20, 0.016),
        "onedrive": _P(4.0, 11.0, 0.16, 0.014),
        "gdrive": _P(5.5, 15.0, 0.11, 0.011),
        "baidupcs": _P(3.0, 8.0, 0.16, 0.038),
        "dbank": _P(2.0, 5.0, 0.24, 0.055),
    },
    "sydney_pl": {
        "dropbox": _P(1.8, 6.0, 0.28, 0.020),
        "onedrive": _P(3.0, 9.0, 0.20, 0.016),
        "gdrive": _P(4.5, 12.0, 0.14, 0.012),
        "baidupcs": _P(1.2, 3.5, 0.32, 0.048),
        "dbank": _P(0.8, 2.2, 0.40, 0.068),
    },
    "capetown": {
        "dropbox": _P(1.2, 4.0, 0.35, 0.028),
        "onedrive": _P(1.8, 5.5, 0.30, 0.024),
        "gdrive": _P(2.5, 7.0, 0.22, 0.018),
        # Spatial outage: the China clouds are unreachable from here.
        "baidupcs": _P(0.2, 0.6, 0.80, 0.120, acc=False),
        "dbank": _P(0.2, 0.5, 0.85, 0.150, acc=False),
    },
    "seoul": {
        "dropbox": _P(2.2, 7.5, 0.22, 0.017),
        "onedrive": _P(3.8, 10.0, 0.17, 0.014),
        "gdrive": _P(5.0, 13.0, 0.12, 0.012),
        "baidupcs": _P(4.0, 10.0, 0.12, 0.035),
        "dbank": _P(2.5, 6.0, 0.20, 0.050),
    },
}

#: 7 EC2 instances in 6 countries across 5 continents (§7).  Download
#: per-connection rates sit near 8 Mbps (the 40 Mbps VM cap over 5
#: connections), which compresses UniDrive's download-side advantage.
EC2: Dict[str, Dict[str, LinkProfile]] = {
    "virginia": {
        "dropbox": _P(9.0, 8.0, 0.08, 0.008),
        "onedrive": _P(12.0, 8.0, 0.07, 0.008),  # OneDrive fastest here
        "gdrive": _P(8.0, 8.0, 0.07, 0.008),
        "baidupcs": _P(0.6, 1.8, 0.42, 0.045),
        "dbank": _P(0.4, 1.2, 0.52, 0.070),
    },
    "oregon": {
        "dropbox": _P(7.0, 8.0, 0.10, 0.009),
        "onedrive": _P(8.0, 8.0, 0.09, 0.009),
        "gdrive": _P(10.0, 8.0, 0.07, 0.008),
        "baidupcs": _P(0.9, 2.6, 0.35, 0.040),
        "dbank": _P(0.6, 1.6, 0.45, 0.065),
    },
    "saopaulo_ec2": {
        "dropbox": _P(3.0, 7.0, 0.20, 0.016),
        "onedrive": _P(3.5, 7.0, 0.18, 0.015),
        "gdrive": _P(5.0, 8.0, 0.13, 0.012),
        "baidupcs": _P(0.3, 0.9, 0.60, 0.065),
        "dbank": _P(0.2, 0.6, 0.70, 0.090),
    },
    "ireland": {
        "dropbox": _P(5.0, 8.0, 0.14, 0.011),
        "onedrive": _P(6.5, 8.0, 0.11, 0.010),
        "gdrive": _P(7.5, 8.0, 0.09, 0.009),
        "baidupcs": _P(0.4, 1.2, 0.50, 0.055),
        "dbank": _P(0.3, 0.9, 0.58, 0.080),
    },
    "singapore": {
        "dropbox": _P(2.2, 6.0, 0.22, 0.017),
        "onedrive": _P(3.8, 7.0, 0.17, 0.014),
        "gdrive": _P(5.5, 8.0, 0.11, 0.011),
        "baidupcs": _P(2.8, 7.0, 0.18, 0.038),
        "dbank": _P(1.6, 4.5, 0.26, 0.055),
    },
    "tokyo": {
        "dropbox": _P(2.8, 7.0, 0.19, 0.015),
        "onedrive": _P(4.2, 7.5, 0.15, 0.013),
        "gdrive": _P(6.0, 8.0, 0.10, 0.010),
        "baidupcs": _P(3.2, 8.0, 0.15, 0.036),
        "dbank": _P(2.2, 5.5, 0.22, 0.052),
    },
    "sydney": {
        "dropbox": _P(2.0, 6.0, 0.26, 0.019),
        "onedrive": _P(3.2, 7.0, 0.19, 0.015),
        "gdrive": _P(4.8, 8.0, 0.13, 0.012),
        "baidupcs": _P(1.4, 4.0, 0.30, 0.045),
        "dbank": _P(0.9, 2.5, 0.38, 0.065),
    },
}

PLANETLAB_NODES: List[str] = sorted(PLANETLAB)
EC2_NODES: List[str] = sorted(EC2)

_ALL = {**PLANETLAB, **EC2}


def location_profiles(location: str) -> Dict[str, LinkProfile]:
    """All five clouds' link profiles at one vantage point."""
    try:
        return _ALL[location]
    except KeyError:
        raise KeyError(
            f"unknown location {location!r}; known: {sorted(_ALL)}"
        ) from None


def link_profile(location: str, cloud_id: str) -> LinkProfile:
    profiles = location_profiles(location)
    try:
        return profiles[cloud_id]
    except KeyError:
        raise KeyError(
            f"unknown cloud {cloud_id!r}; known: {CLOUD_IDS}"
        ) from None


def make_clouds(
    sim: Simulator,
    cloud_ids: Sequence[str] = CLOUD_IDS,
    quota_bytes: Optional[int] = None,
    retain_content: bool = True,
) -> List[SimulatedCloud]:
    """Instantiate the shared multi-cloud services."""
    return [
        SimulatedCloud(sim, cid, quota_bytes=quota_bytes,
                       retain_content=retain_content)
        for cid in cloud_ids
    ]


def connect_location(
    sim: Simulator,
    clouds: Sequence[SimulatedCloud],
    location: str,
    seed: int = 0,
    stress: Optional[StressProcess] = None,
    max_parallel=5,
    bandwidth_scale: float = 1.0,
    nic_down_mbps: Optional[float] = None,
    nic_up_mbps: Optional[float] = None,
) -> List[CloudConnection]:
    """One device's connections to every cloud, from one location.

    ``max_parallel`` is an int applied to every cloud, or a dict mapping
    cloud id -> parallelism (used for native apps, which sustain fewer
    concurrent transfers than UniDrive's 5 Web-API connections).

    ``nic_down_mbps`` / ``nic_up_mbps`` add a host-level aggregate cap
    shared across all clouds (the paper's EC2 VMs capped downloads at
    40 Mbps total, which limited UniDrive's download-side gains).

    Each link evaluates its bandwidth only at the epochs a transfer
    reads and keeps a few generator states per chunk drawn, not its
    shocks, so fleet-scale trials with thousands of links need no
    separate memory mode.
    """
    down_nic = SharedNic(nic_down_mbps * MBPS) if nic_down_mbps else None
    up_nic = SharedNic(nic_up_mbps * MBPS) if nic_up_mbps else None
    connections = []
    for i, cloud in enumerate(clouds):
        profile = link_profile(location, cloud.cloud_id)
        if bandwidth_scale != 1.0:
            profile = profile.scaled(bandwidth_scale)
        if isinstance(max_parallel, dict):
            parallel = max_parallel.get(cloud.cloud_id, 5)
        else:
            parallel = max_parallel
        connections.append(
            CloudConnection(
                sim, cloud, profile,
                np.random.default_rng((seed * 977 + i * 131) % (2**31)),
                stress=stress, max_parallel=parallel,
                up_nic=up_nic, down_nic=down_nic,
            )
        )
    return connections


def make_stress(
    seed: int,
    cloud_ids: Sequence[str] = CLOUD_IDS,
    mean_calm: float = 5400.0,
    mean_stress: float = 900.0,
) -> StressProcess:
    """The shared mutual-exclusion stress process (Table 1 structure)."""
    return StressProcess(
        np.random.default_rng(seed), list(cloud_ids),
        mean_calm=mean_calm, mean_stress=mean_stress,
    )
