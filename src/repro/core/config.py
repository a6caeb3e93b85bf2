"""UniDrive configuration (the knobs from paper §5-§7).

Defaults follow the paper's evaluation setup (§7.1): N = 5 clouds,
K_r = 3, K_s = 2, segment size θ = 4 MB, k = 3 blocks per segment
(≈1.3 MB blocks — the sweet spot between throughput and failure rate
from §3.2), and up to 5 connections per cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["UniDriveConfig"]

_MB = 1024 * 1024


@dataclass(frozen=True)
class UniDriveConfig:
    """All tunable parameters of a UniDrive deployment."""

    #: Reliability requirement K_r: any K_r of N clouds suffice to read.
    k_reliability: int = 3
    #: Security requirement K_s: fewer than K_s clouds learn nothing.
    k_security: int = 2
    #: Content-defined segmentation target θ, bytes.
    theta: int = 4 * _MB
    #: Data blocks per segment, k.
    k_blocks: int = 3
    #: Maximum concurrent connections per cloud.
    connections_per_cloud: int = 5
    #: Cloud-update polling interval τ, seconds.
    check_interval: float = 30.0
    #: Lock staleness threshold ΔT, seconds (paper suggests 120 s).
    lock_stale_seconds: float = 120.0
    #: Virtual seconds to keep retrying lock acquisition before giving up.
    #: Must exceed ΔT so a crashed holder's lock can be broken and taken.
    lock_acquire_timeout: float = 900.0
    #: Random backoff window after a failed lock attempt, seconds.
    lock_backoff_max: float = 8.0
    #: Delta file merges into the base when it exceeds this fraction of
    #: the base size...
    delta_merge_ratio: float = 0.25
    #: ...or this absolute size, whichever is smaller (λ, paper §5.2).
    delta_merge_bytes: int = 10 * 1024
    #: DES key protecting metadata at rest in the clouds.
    metadata_key: bytes = b"UniDrive"
    #: Consecutive failures after which a cloud is considered down for
    #: the remainder of a transfer job.
    cloud_failure_threshold: int = 3
    #: Conflict-resolution policy for divergent concurrent edits:
    #: "retain-both" (paper default), "last-writer-wins" (timestamp
    #: then device-name tiebreak), or "per-path" (client-supplied
    #: resolver callback — see core.merge.MergePolicy).
    conflict_policy: str = "retain-both"
    #: Per-sync-round deadline budget, virtual seconds (0 = unbounded).
    #: Propagated through metadata fetch, upload/download batches, and
    #: lock acquisition so a round aborts cleanly instead of stacking
    #: worst-case timeouts.
    round_deadline_seconds: float = 0.0
    #: Cap on hedge traffic as a fraction of the batch's expected
    #: fetch bytes (0 disables hedging).
    hedge_bytes_fraction: float = 0.1
    #: Cloud-side directory layout.
    blocks_dir: str = "/unidrive/blocks"
    meta_dir: str = "/unidrive/meta"
    lock_dir: str = "/unidrive/locks"

    def validate(self, n_clouds: int) -> None:
        """Check parameter consistency for a deployment of N clouds.

        Enforces 1 <= K_s <= K_r <= N (paper §6.1) plus basic sanity,
        and that the security cap leaves room for the reliability
        placement (fair share must not exceed the per-cloud maximum).
        """
        from .placement import fair_share, max_blocks_per_cloud

        if n_clouds < 1:
            raise ValueError(f"need at least one cloud, got {n_clouds}")
        if not 1 <= self.k_security <= self.k_reliability <= n_clouds:
            raise ValueError(
                f"require 1 <= K_s <= K_r <= N, got K_s={self.k_security} "
                f"K_r={self.k_reliability} N={n_clouds}"
            )
        if self.k_blocks < 1:
            raise ValueError(f"k must be >= 1, got {self.k_blocks}")
        if self.connections_per_cloud < 1:
            raise ValueError("connections_per_cloud must be >= 1")
        if self.conflict_policy not in (
            "retain-both", "last-writer-wins", "per-path"
        ):
            raise ValueError(
                f"unknown conflict_policy {self.conflict_policy!r}"
            )
        share = fair_share(self.k_blocks, self.k_reliability)
        cap = max_blocks_per_cloud(self.k_blocks, self.k_security)
        if share > cap:
            raise ValueError(
                f"reliability needs {share} blocks/cloud but security "
                f"allows at most {cap}; relax K_s or K_r"
            )
        if self.round_deadline_seconds < 0:
            raise ValueError("round_deadline_seconds must be >= 0")
        if not 0.0 <= self.hedge_bytes_fraction <= 1.0:
            raise ValueError("hedge_bytes_fraction must be in [0, 1]")
