"""UniDrive configuration (the knobs from paper §5-§7).

Defaults follow the paper's evaluation setup (§7.1): N = 5 clouds,
K_r = 3, K_s = 2, segment size θ = 4 MB, k = 3 blocks per segment
(≈1.3 MB blocks — the sweet spot between throughput and failure rate
from §3.2), and up to 5 connections per cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    #: Per-request retry budget for data-plane transfers.
    max_retries: int = 4
    #: First retry backoff delay, virtual seconds (doubles per attempt).
    retry_base_delay: float = 0.5
    #: Retry backoff ceiling, virtual seconds.
    retry_max_delay: float = 30.0
    #: Exponential growth factor between consecutive retry backoffs.
    retry_multiplier: float = 2.0
    #: Jitter fraction of each backoff (delays land in [d*(1-j), d]).
    retry_jitter: float = 0.5
    #: Consecutive failures after which a cloud is considered down for
    #: the remainder of a transfer job.
    cloud_failure_threshold: int = 3
    #: Conflict-resolution policy for divergent concurrent edits:
    #: "retain-both" (paper default), "last-writer-wins" (timestamp
    #: then device-name tiebreak), or "per-path" (client-supplied
    #: resolver callback — see core.merge.MergePolicy).
    conflict_policy: str = "retain-both"
    #: Consecutive transient failures that open a cloud's breaker
    #: (fatal classifications open it immediately).
    breaker_failure_threshold: int = 3
    #: Virtual seconds an open breaker waits before admitting
    #: half-open probes.
    breaker_cooldown_seconds: float = 30.0
    #: Maximum probe dispatches per half-open episode.
    breaker_probe_quota: int = 1
    #: Probe successes required to close a half-open breaker.
    breaker_close_after: int = 1
    #: Per-sync-round deadline budget, virtual seconds (0 = unbounded).
    #: Propagated through metadata fetch, upload/download batches, and
    #: lock acquisition so a round aborts cleanly instead of stacking
    #: worst-case timeouts.
    round_deadline_seconds: float = 0.0
    #: Hedged block fetches: a duplicate request races to the
    #: next-healthiest cloud once an in-flight fetch exceeds this
    #: multiple of its estimator-predicted duration.
    hedge_latency_factor: float = 3.0
    #: Cap on hedge traffic as a fraction of the batch's expected
    #: fetch bytes (0 disables hedging).
    hedge_bytes_fraction: float = 0.1
    #: Brownout floor: commits during a brownout must place at least
    #: ``k + brownout_floor`` blocks of every segment; the indices left
    #: unplaced are recorded as redundancy debt for scrub to repay.
    brownout_floor: int = 0
    #: Cloud-side directory layout.
    blocks_dir: str = "/unidrive/blocks"
    meta_dir: str = "/unidrive/meta"
    lock_dir: str = "/unidrive/locks"
    extra: dict = field(default_factory=dict)

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
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_seconds <= 0:
            raise ValueError("breaker_cooldown_seconds must be > 0")
        if self.breaker_probe_quota < 1:
            raise ValueError("breaker_probe_quota must be >= 1")
        if not 1 <= self.breaker_close_after <= self.breaker_probe_quota:
            raise ValueError(
                "require 1 <= breaker_close_after <= breaker_probe_quota"
            )
        if self.round_deadline_seconds < 0:
            raise ValueError("round_deadline_seconds must be >= 0")
        if self.hedge_latency_factor < 1.0:
            raise ValueError("hedge_latency_factor must be >= 1")
        if not 0.0 <= self.hedge_bytes_fraction <= 1.0:
            raise ValueError("hedge_bytes_fraction must be in [0, 1]")
        if self.brownout_floor < 0:
            raise ValueError("brownout_floor must be >= 0")
        # A brownout commit may never demand more blocks than a segment
        # has: k + floor must stay within the normal placement's
        # n = fair_share * N total blocks.
        from .placement import normal_block_count

        surplus = normal_block_count(
            self.k_blocks, self.k_reliability, n_clouds
        ) - self.k_blocks
        if self.brownout_floor > surplus:
            raise ValueError(
                f"brownout_floor {self.brownout_floor} exceeds the "
                f"redundancy surplus n - k = {surplus}"
            )
