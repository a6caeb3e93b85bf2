"""Network condition simulation: bandwidth, latency, failures, transfers."""

from .bandwidth import MBPS, BandwidthProcess, ConstantBandwidth
from .failures import FailureModel, StressProcess, interval_failure_indicators
from .latency import LatencyModel
from .profiles import LinkConditions, LinkProfile
from .transfer import SharedNic, Transfer, TransferCancelled, TransferEngine

__all__ = [
    "BandwidthProcess",
    "ConstantBandwidth",
    "FailureModel",
    "LatencyModel",
    "LinkConditions",
    "LinkProfile",
    "MBPS",
    "SharedNic",
    "StressProcess",
    "Transfer",
    "TransferCancelled",
    "TransferEngine",
    "interval_failure_indicators",
]
