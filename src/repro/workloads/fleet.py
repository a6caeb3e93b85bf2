"""The fleet builder: simulated clouds, per-device connections, clients.

Every multi-device setup — tests, tools, examples, the shared-folder
campaign — wires devices here, under one seed contract:

* a device with seed ``s`` draws connection ``i`` (to the i-th cloud)
  from ``default_rng(s + i)`` and its client from ``default_rng(s)``;
* :func:`make_fleet` names its clouds ``cloud{i}`` and gives device
  ``d`` the name ``device{d}`` and the seed ``seed + 31 * d``.

Links are instant (:func:`~repro.cloud.make_instant_connection`) unless
a :class:`~repro.netsim.LinkProfile`, or one profile per cloud, is
given.  Fleets on measured vantage-point links keep
:func:`~repro.workloads.locations.connect_location` (DESIGN.md,
"Fleets").
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..cloud import CloudConnection, SimulatedCloud, make_instant_connection
from ..core import UniDriveClient, UniDriveConfig
from ..fsmodel import VirtualFileSystem
from ..netsim import LinkProfile
from ..simkernel import Simulator

__all__ = ["Fleet", "connect", "make_device", "make_fleet"]

#: Seed distance between consecutive devices of one fleet: room for 31
#: clouds before two devices' connection seeds overlap.
DEVICE_SEED_STRIDE = 31

Link = Union[None, LinkProfile, Sequence[LinkProfile]]


class Fleet(NamedTuple):
    """What :func:`make_fleet` builds; unpacks as ``sim, clouds, devices``."""

    sim: Simulator
    clouds: List[SimulatedCloud]
    devices: List[UniDriveClient]


def connect(sim: Simulator, clouds: Sequence[SimulatedCloud], seed: int,
            link: Link = None) -> List[CloudConnection]:
    """One device's connections: the i-th draws from ``default_rng(seed
    + i)`` over ``link`` (None: instant; one profile for every cloud,
    or one per cloud)."""
    if link is None:
        return [make_instant_connection(sim, cloud, seed=seed + i)
                for i, cloud in enumerate(clouds)]
    if isinstance(link, LinkProfile):
        link = [link] * len(clouds)
    if len(link) != len(clouds):
        raise ValueError(f"{len(link)} link profiles for {len(clouds)} clouds")
    return [
        CloudConnection(sim, cloud, profile, np.random.default_rng(seed + i))
        for i, (cloud, profile) in enumerate(zip(clouds, link))
    ]


def make_device(sim: Simulator, clouds: Sequence[SimulatedCloud], name: str,
                seed: int, link: Link = None,
                config: Optional[UniDriveConfig] = None, fs=None,
                journal=None, conflict_resolver=None) -> UniDriveClient:
    """A client on :func:`connect`'s connections, its rng
    ``default_rng(seed)``, over ``fs`` (a fresh folder by default)."""
    return UniDriveClient(
        sim, name, fs if fs is not None else VirtualFileSystem(),
        connect(sim, clouds, seed, link), config=config,
        rng=np.random.default_rng(seed), journal=journal,
        conflict_resolver=conflict_resolver,
    )


def make_fleet(devices: int = 1, clouds: int = 5, seed: int = 0,
               link: Link = None,
               config: Optional[UniDriveConfig] = None) -> Fleet:
    """A new simulator, ``clouds`` clouds and ``devices`` devices."""
    sim = Simulator()
    services = [SimulatedCloud(sim, f"cloud{i}") for i in range(clouds)]
    return Fleet(sim, services, [
        make_device(sim, services, f"device{d}",
                    seed + DEVICE_SEED_STRIDE * d, link, config)
        for d in range(devices)
    ])
