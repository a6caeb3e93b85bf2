"""Quorum-based distributed mutual exclusion over cloud files (paper §5.2).

The lock is built from nothing but the five RESTful calls:

* to acquire, a device uploads an **empty lock file** named after itself
  into a dedicated lock directory on every cloud, then lists each lock
  directory; it holds a cloud's lock iff its own file is the only
  (non-stale) lock file there, and holds *the* lock iff it locks a
  majority (quorum) of clouds;
* contention is resolved by withdrawing (deleting one's lock files
  everywhere) and retrying after a random backoff;
* crash tolerance needs no synchronized clocks: a holder refreshes its
  lock files periodically (re-upload → new server mtime); any client
  that observes the *same* (name, mtime) pair for longer than ΔT deems
  it obsolete and deletes it — **lock breaking**.

Correctness rests only on read-after-write consistency of each cloud,
which every CCS provides.
"""

from __future__ import annotations

import posixpath
from typing import Dict, Sequence, Tuple

import numpy as np

from ..cloud import CloudAPI
from ..obs import OBS
from ..simkernel import Interrupt, Simulator
from .config import UniDriveConfig
from .retry import RetryPolicy
from .util import gather_safe

__all__ = ["QuorumLock", "LockTimeout"]


class LockTimeout(Exception):
    """Raised when the quorum could not be acquired within the budget."""


class QuorumLock:
    """One device's handle on the multi-cloud metadata lock."""

    def __init__(
        self,
        sim: Simulator,
        connections: Sequence[CloudAPI],
        device: str,
        config: UniDriveConfig,
        rng: np.random.Generator,
    ):
        if not connections:
            raise ValueError("need at least one cloud connection")
        self.sim = sim
        self.connections = list(connections)
        self.device = device
        self.config = config
        self._rng = rng
        self.held = False
        self._refresher = None
        # Correlation context for the current sync round; the owning
        # client stamps a (trace_id, parent sid) pair here before
        # acquiring so lock spans join the round's trace.  Safe as an
        # attribute (unlike connection-level state) because one lock
        # belongs to exactly one client process.
        self.trace_ctx = None
        # (trace_id, lock_acquire sid) while an acquire/hold is in
        # flight: the lock-file uploads it issues (quorum rounds and
        # refresh keepalives) join the acquire's trace through this.
        self._op_ctx = None
        # Optional DeadlineBudget the owning client stamps per sync
        # round (degradation control plane): acquire() clamps its own
        # timeout to the round's remaining time so a contended lock
        # cannot outspend the round deadline.
        self.budget = None
        # (cloud_id, file name, server mtime) -> local time first observed.
        # Pruned against every successful listing (see _try_once): a key
        # is only meaningful while its exact (name, mtime) pair is still
        # present, and every lock refresh mints a new mtime, so keeping
        # history forever would grow without bound.
        self._first_seen: Dict[Tuple[str, str, float], float] = {}
        # Backoff schedule between acquisition rounds: same unified
        # policy as the data plane, capped by the lock's own knob.
        self._backoff = RetryPolicy(
            max_attempts=2**30,  # acquire() is bounded by time, not count
            base_delay=0.4,
            max_delay=config.lock_backoff_max,
            multiplier=1.6,
            jitter=0.75,
        )
        # Withdrawal deletes must actually land before this contender
        # sleeps: a lock file left behind by one transient delete failure
        # reads as a live contender to every peer, stalling the winner's
        # next acquisition until the ΔT staleness break.  A small retry
        # budget absorbs blips; truly-down clouds still fail fast.
        self._withdraw_retry = RetryPolicy(
            max_attempts=3,
            base_delay=0.2,
            max_delay=2.0,
            multiplier=2.0,
            jitter=0.5,
        )

    @property
    def lock_file_name(self) -> str:
        return f"lock_{self.device}"

    @property
    def lock_path(self) -> str:
        return posixpath.join(self.config.lock_dir, self.lock_file_name)

    @property
    def quorum(self) -> int:
        return len(self.connections) // 2 + 1

    # -- acquisition -------------------------------------------------------

    def acquire(self):
        """Acquire the quorum lock, retrying with random backoff.

        Raises :class:`LockTimeout` once ``lock_acquire_timeout`` virtual
        seconds elapse without reaching a quorum.  The budget is a time
        window (not an attempt count) so that a contender outlives both a
        long-held lock and the ΔT needed to break a crashed holder's.
        """
        if self.held:
            raise RuntimeError(f"{self.device} already holds the lock")
        timeout = self.config.lock_acquire_timeout
        if self.budget is not None:
            timeout = self.budget.clamp(timeout)
        deadline = self.sim.now + timeout
        span = None
        if OBS.enabled:
            span, self._op_ctx = OBS.begin(
                "lock_acquire", t=self.sim.now, track=self.device,
                ctx=self.trace_ctx,
            )
        attempt = 0
        try:
            while True:
                locked = yield from self._try_once()
                if locked >= self.quorum:
                    self.held = True
                    self._refresher = self.sim.process(self._refresh_loop())
                    if OBS.enabled:
                        OBS.lock_settled(span, self.device, self.sim.now,
                                         attempt, locked)
                    return
                yield from self._withdraw()
                if self.sim.now >= deadline:
                    self._op_ctx = None
                    if OBS.enabled:
                        OBS.lock_settled(span, self.device, self.sim.now,
                                         attempt, None)
                    raise LockTimeout(
                        f"{self.device}: no quorum within {timeout:.0f}s"
                    )
                backoff = self._backoff.backoff(attempt, self._rng)
                attempt += 1
                yield self.sim.timeout(backoff)
        except Interrupt:
            # Interrupted mid-round: _try_once may already have uploaded
            # our lock files.  Leaving them behind would make every peer
            # wait out the ΔT staleness window before breaking them —
            # withdraw before propagating.  (A hard process kill skips
            # this cleanup, exactly like a real crash; the journal's
            # lock_pending flag lets the owner clean up on resume.)
            self._op_ctx = None
            if span is not None:
                OBS.end(span, t=self.sim.now,
                        rounds=attempt + 1, error="aborted")
            yield from self._withdraw()
            raise

    def release(self):
        """Release by deleting our lock files everywhere (best effort)."""
        if self._refresher is not None and self._refresher.is_alive:
            self._refresher.interrupt("released")
        self._refresher = None
        self.held = False
        self._op_ctx = None
        yield from self._withdraw()

    def cleanup(self):
        """Withdraw any lock files this *device* left on the clouds.

        Used on crash recovery: a device that died between uploading
        lock files and releasing them finds ``lock_pending`` in its
        journal and deletes its own stale files instead of making peers
        wait out the ΔT staleness break.  Safe to call when no files
        exist (deletes are best-effort).
        """
        if self.held:
            raise RuntimeError(f"{self.device} holds the lock; release it")
        yield from self._withdraw()

    # -- internals -------------------------------------------------------

    def _try_once(self):
        """One acquisition round; returns the number of clouds locked."""
        yield from gather_safe(
            self.sim,
            [conn.upload(self.lock_path, b"", ctx=self._op_ctx)
             for conn in self.connections],
        )
        listings = yield from gather_safe(
            self.sim,
            [
                conn.list_folder(self.config.lock_dir)
                for conn in self.connections
            ],
        )
        locked = 0
        breakers = []
        present: set = set()
        responded: set = set()
        for conn, (ok, entries) in zip(self.connections, listings):
            if not ok:
                continue
            responded.add(conn.cloud_id)
            mine = False
            contenders = 0
            for entry in entries:
                if entry.is_folder:
                    continue
                if entry.name == self.lock_file_name:
                    mine = True
                    continue
                key = (conn.cloud_id, entry.name, entry.mtime)
                present.add(key)
                first = self._first_seen.setdefault(key, self.sim.now)
                if self.sim.now - first > self.config.lock_stale_seconds:
                    # Obsolete lock from a crashed device: break it.
                    breakers.append(conn.delete(entry.path))
                    if OBS.enabled:
                        OBS.lock_break(conn.cloud_id, self.sim.now,
                                       entry.name, self.device)
                else:
                    contenders += 1
            if mine and contenders == 0:
                locked += 1
        # Prune observations whose (name, mtime) pair vanished from a
        # cloud that answered this round — released locks and refreshed
        # mtimes would otherwise accumulate forever.  Clouds that failed
        # to list keep their history: a blip must not reset staleness
        # clocks for locks we are waiting out.
        if responded:
            self._first_seen = {
                key: first
                for key, first in self._first_seen.items()
                if key[0] not in responded or key in present
            }
        if breakers:
            yield from gather_safe(self.sim, breakers)
        return locked

    def _withdraw(self):
        """Delete our lock files everywhere, retrying transient failures.

        Ordered before the caller's backoff sleep (acquire() yields from
        this *then* sleeps), so by the time a losing contender parks, its
        files are gone from every reachable cloud and the round's winner
        is not blocked until the staleness break.  Unreachable clouds
        fail fast here exactly as in the data plane; their leftover files
        age out via ΔT like any crashed device's.
        """
        yield from gather_safe(
            self.sim,
            [
                self._withdraw_retry.run(
                    self.sim,
                    lambda conn=conn: conn.delete(self.lock_path),
                    rng=self._rng,
                )
                for conn in self.connections
            ],
        )

    def _refresh_loop(self):
        """Keep our lock files fresh so peers don't break them."""
        period = self.config.lock_stale_seconds / 3.0
        try:
            while True:
                yield self.sim.timeout(period)
                yield from gather_safe(
                    self.sim,
                    [
                        conn.upload(self.lock_path, b"", ctx=self._op_ctx)
                        for conn in self.connections
                    ],
                )
        except Interrupt:
            return
