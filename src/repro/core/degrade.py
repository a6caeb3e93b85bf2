"""Degradation control plane: breakers, deadlines, hedging, debt.

A client learns a cloud's state only from its own requests, so this
module acts on that evidence alone.  Every
:class:`~repro.core.client.UniDriveClient` runs one controller; four
mechanisms turn failed and slow requests into dispatch decisions:

* **Per-cloud circuit breakers** — a closed/open/half-open state
  machine driven purely by the failure evidence the data path already
  produces (RetryPolicy classifications from scheduler workers and
  ``client._replicate``).  An open cloud receives *no* regular
  dispatch — only a bounded number of half-open probes after a
  deterministic sim-clock cooldown — instead of a fresh full retry
  budget every sync round.

* **Deadline budgets** — :class:`DeadlineBudget` carries one sync
  round's remaining time through metadata fetch, upload/download
  batches, and lock acquisition, so a round degrades or aborts cleanly
  instead of stacking worst-case timeouts.

* **Hedged fetches** — the download scheduler consults
  :meth:`DegradeController.hedge_threshold` to race a duplicate block
  request (a *different* erasure-coded index of the same segment, since
  any k of n reconstruct) to an idle connection once an in-flight
  fetch exceeds a multiple of the duration the estimator predicted
  when it was dispatched, cancelling the loser and capping hedge
  bytes.

* **Brownout writes** — when fewer than n blocks can be placed, the
  commit proceeds with the reachable subset (at least k blocks of
  every segment, or the file is unavailable and the round fails) and
  the missing indices are recorded as *redundancy debt* in segment
  metadata for ``core/scrub.py`` to repay once breakers close.

Everything here is pure bookkeeping on the caller's sim clock: no
randomness is drawn, no events are scheduled and no telemetry is read,
so consulting the controller can never perturb a deterministic run,
and a run decides the same with observability on, off or absent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs import OBS
from .config import UniDriveConfig

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "HEDGE_LATENCY_FACTOR",
    "CircuitBreaker",
    "DeadlineBudget",
    "DegradeController",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: A fetch becomes hedge-eligible once it has run this many times the
#: duration the estimator predicted for it at dispatch.
HEDGE_LATENCY_FACTOR = 3.0

_NONE: frozenset = frozenset()


class CircuitBreaker:
    """One cloud's closed/open/half-open admission state machine.

    The breaker only ever opens on *failure evidence*: a transient
    failure count reaching ``failure_threshold``, a fatal (fail-fast /
    give-up) classification, or a half-open probe failing.  Time alone
    moves it from open to half-open (after ``cooldown`` virtual
    seconds); only probe successes close it again.  All transitions are
    a pure function of the (timestamped) call sequence — no randomness,
    no scheduled events — so breaker behaviour is deterministic under
    the deterministic simulator.
    """

    __slots__ = (
        "cloud_id", "failure_threshold", "cooldown", "probe_quota",
        "close_after", "state", "failures", "probes_issued",
        "probe_successes", "opened_at", "transitions",
    )

    def __init__(
        self,
        cloud_id: str,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        probe_quota: int = 1,
        close_after: int = 1,
    ):
        self.cloud_id = cloud_id
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.probe_quota = probe_quota
        self.close_after = close_after
        self.state = CLOSED
        self.failures = 0
        self.probes_issued = 0
        self.probe_successes = 0
        self.opened_at: Optional[float] = None
        #: ``(t, from_state, to_state)`` history, for tests and the
        #: flapping gate.
        self.transitions: List[Tuple[float, str, str]] = []

    def _transition(self, t: float, to_state: str) -> None:
        if to_state == self.state:
            return
        self.transitions.append((t, self.state, to_state))
        if OBS.enabled:
            OBS.event(
                "breaker_transition", t=t, track=self.cloud_id,
                src=self.state, dst=to_state,
            )
        self.state = to_state

    def _maybe_half_open(self, t: float) -> None:
        if (
            self.state == OPEN
            and self.opened_at is not None
            and t - self.opened_at >= self.cooldown
        ):
            self.probes_issued = 0
            self.probe_successes = 0
            self._transition(t, HALF_OPEN)

    def admits(self, t: float) -> bool:
        """Whether a request to this cloud may be dispatched at ``t``.

        Open-to-half-open is a deterministic function of ``t``, so the
        check is idempotent and safe to call from peeking code paths;
        it never consumes a probe slot (see :meth:`note_dispatch`).
        """
        self._maybe_half_open(t)
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN:
            return self.probes_issued < self.probe_quota
        return False

    def note_dispatch(self, t: float) -> None:
        """Account one committed dispatch (consumes a half-open probe)."""
        self._maybe_half_open(t)
        if self.state == HALF_OPEN:
            self.probes_issued += 1

    def record_success(self, t: float) -> None:
        if self.state == HALF_OPEN:
            self.probe_successes += 1
            if self.probe_successes >= self.close_after:
                self.failures = 0
                self.opened_at = None
                self._transition(t, CLOSED)
        elif self.state == CLOSED:
            self.failures = 0
        # A success while OPEN is a straggler from before the breaker
        # tripped; the cooldown clock keeps running unperturbed.

    def record_failure(self, t: float, fatal: bool = False) -> None:
        self._maybe_half_open(t)
        if self.state == HALF_OPEN:
            # A failed probe re-opens immediately and re-arms cooldown.
            self.opened_at = t
            self._transition(t, OPEN)
            return
        if self.state == CLOSED:
            if fatal:
                self.failures = max(self.failures, self.failure_threshold)
            else:
                self.failures += 1
            if self.failures >= self.failure_threshold:
                self.opened_at = t
                self._transition(t, OPEN)
        # Failures while already OPEN are stragglers: ignoring them
        # keeps the cooldown bounded (re-arming on every late failure
        # could hold a breaker open forever under pipelined traffic).

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "probes_issued": self.probes_issued,
            "opened_at": self.opened_at,
            "transitions": [
                {"t": t, "from": src, "to": dst}
                for t, src, dst in self.transitions
            ],
        }


class DeadlineBudget:
    """One sync round's remaining-time budget on the sim clock."""

    __slots__ = ("sim", "deadline")

    def __init__(self, sim, seconds: float):
        self.sim = sim
        self.deadline = sim.now + seconds

    @property
    def expired(self) -> bool:
        return self.sim.now >= self.deadline

    def remaining(self) -> float:
        return max(0.0, self.deadline - self.sim.now)

    def clamp(self, timeout: float) -> float:
        """Shrink a step's own timeout to the round's remaining budget."""
        return min(timeout, self.remaining())


class DegradeController:
    """Per-client admission control consulted by the data path.

    One controller lives on the client (sharing breaker state across
    every upload/download batch and metadata operation of that client),
    and is handed to both schedulers and ``_replicate``.  Admission is
    each cloud's own :class:`CircuitBreaker`: the failure evidence of
    this client's requests, and nothing else.
    """

    def __init__(self, config: UniDriveConfig):
        self.config = config
        self._breakers: Dict[str, CircuitBreaker] = {}
        # Clouds whose breaker is open or half-open: every move to or
        # from closed runs through on_success / on_failure.
        self._unsettled: set = set()

    # -- breaker plumbing --------------------------------------------------

    def breaker(self, cloud_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(cloud_id)
        if breaker is None:
            breaker = self._breakers[cloud_id] = CircuitBreaker(cloud_id)
        return breaker

    def admits(self, cloud_id: str, t: float) -> bool:
        """Whether regular dispatch (or a probe slot) is available."""
        return (cloud_id not in self._unsettled
                or self._breakers[cloud_id].admits(t))

    def refusing(self, cloud_ids, sim) -> frozenset:
        """The clouds among ``cloud_ids`` that :meth:`admits` turns away
        now, on ``sim``'s clock: empty, without asking each one, while
        every breaker is closed."""
        if not self._unsettled:
            return _NONE
        t = sim.now
        return frozenset(c for c in cloud_ids if not self.admits(c, t))

    def note_dispatch(self, cloud_id: str, t: float) -> None:
        if cloud_id in self._unsettled:  # only a half-open one counts
            self._breakers[cloud_id].note_dispatch(t)

    def on_success(self, cloud_id: str, t: float) -> None:
        breaker = self.breaker(cloud_id)
        if breaker.failures or breaker.state != CLOSED:
            breaker.record_success(t)
            if breaker.state == CLOSED:
                self._unsettled.discard(cloud_id)

    def on_failure(self, cloud_id: str, t: float,
                   fatal: bool = False) -> None:
        breaker = self.breaker(cloud_id)
        breaker.record_failure(t, fatal=fatal)
        if breaker.state != CLOSED:
            self._unsettled.add(cloud_id)

    def state(self, cloud_id: str) -> str:
        return self.breaker(cloud_id).state

    # -- deadline budgets --------------------------------------------------

    def round_budget(self, sim) -> Optional[DeadlineBudget]:
        seconds = self.config.round_deadline_seconds
        if seconds <= 0:
            return None
        return DeadlineBudget(sim, seconds)

    # -- hedging -----------------------------------------------------------

    @property
    def hedging(self) -> bool:
        return self.config.hedge_bytes_fraction > 0.0

    def hedge_threshold(self, estimate_bps: float,
                        nbytes: int) -> Optional[float]:
        """Seconds after which an in-flight fetch is hedge-eligible.

        ``None`` when the primary cloud has no finite throughput
        estimate yet — without a prediction there is no basis to call
        the fetch slow.
        """
        if estimate_bps <= 0 or estimate_bps == float("inf"):
            return None
        return (nbytes / estimate_bps) * HEDGE_LATENCY_FACTOR

    def snapshot(self) -> dict:
        return {
            cloud: breaker.snapshot()
            for cloud, breaker in sorted(self._breakers.items())
        }
