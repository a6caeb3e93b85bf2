"""UniDrive reproduction: synergize multiple consumer cloud storage services.

A from-scratch Python implementation of the system described in
"UniDrive: Synergize Multiple Consumer Cloud Storage Services"
(ACM Middleware 2015), including every substrate it depends on:

* :mod:`repro.simkernel` -- deterministic discrete-event simulation;
* :mod:`repro.netsim` -- bandwidth / latency / failure processes and a
  fluid-flow transfer engine;
* :mod:`repro.cloud` -- simulated CCS services behind the five RESTful
  calls (upload, download, create, list, delete);
* :mod:`repro.codec` -- GF(2^8) Reed-Solomon erasure coding
  (non-systematic, as the paper's security design requires);
* :mod:`repro.chunking` -- content-defined segmentation;
* :mod:`repro.crypto` -- DES metadata encryption;
* :mod:`repro.fsmodel` -- the local sync-folder interface;
* :mod:`repro.core` -- UniDrive itself: metadata model, Delta-sync,
  quorum lock, three-way merge, block scheduling with
  over-provisioning and in-channel probing, the client, and the
  baseline systems;
* :mod:`repro.workloads` -- vantage-point profiles, workload
  generators, and the experiment harness behind every figure/table;
* :mod:`repro.obs` -- sim-clock-aware tracing and metrics (spans,
  counters, JSONL / Chrome-trace exporters), disabled by default.

Quick start::

    from repro import Simulator, SimulatedCloud
    from repro.workloads import make_device

    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"cloud{i}") for i in range(5)]
    client = make_device(sim, clouds, "laptop", seed=0)
    client.fs.write_file("/hello.txt", b"hi", mtime=0.0)
    report = sim.run_process(client.sync())
"""

from . import obs
from .cloud import CloudAPI, SimulatedCloud
from .core import (
    SyncReport,
    UniDriveClient,
    UniDriveConfig,
    UniDriveTransfer,
)
from .simkernel import Simulator

__version__ = "1.0.0"

__all__ = [
    "CloudAPI",
    "SimulatedCloud",
    "Simulator",
    "SyncReport",
    "UniDriveClient",
    "UniDriveConfig",
    "UniDriveTransfer",
    "obs",
    "__version__",
]
