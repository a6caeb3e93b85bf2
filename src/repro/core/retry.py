"""Unified retry/backoff policy for cloud operations.

Every cloud request that retries — metadata reads and writes, the
quorum lock's backoff and withdrawals, the data-plane schedulers —
shares this policy:

* **Error classification.**  Each :mod:`repro.cloud.errors` class
  carries a ``retry_action`` attribute — ``CloudUnavailableError`` fails
  fast (the outage outlasts any backoff, and every probe wastes the
  unavailability timeout), ``QuotaExceededError`` / ``NotFoundError`` /
  ``ConflictError`` are deterministic and never retried, and
  ``RequestFailedError`` (plus any other transient ``CloudError``)
  retries.
* **Jittered exponential backoff.**  Delays grow as
  ``base * multiplier ** attempt``, capped at ``max_delay``, then jitter
  down uniformly into ``[delay * (1 - jitter), delay]`` so contending
  devices decorrelate.  Passing ``rng=None`` yields the deterministic
  (un-jittered) schedule, which the data-plane schedulers use to stay
  reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from ..cloud import CloudError
from ..obs import OBS

__all__ = ["RetryPolicy", "RETRY", "FAIL_FAST", "GIVE_UP"]

#: Classification verdicts (the values double as log-friendly strings).
RETRY = "retry"
FAIL_FAST = "fail-fast"
GIVE_UP = "give-up"

_ACTIONS = (RETRY, FAIL_FAST, GIVE_UP)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, and how patiently, to retry a cloud operation."""

    #: Total attempt budget for retryable errors (first try included).
    max_attempts: int = 4
    #: First backoff delay, virtual seconds.
    base_delay: float = 0.5
    #: Backoff ceiling, virtual seconds.
    max_delay: float = 30.0
    #: Exponential growth factor between consecutive backoffs.
    multiplier: float = 2.0
    #: Jitter fraction: delays land uniformly in [d * (1 - jitter), d].
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    # -- classification ----------------------------------------------------

    @staticmethod
    def classify(exc: CloudError) -> str:
        """Map a cloud error to one of RETRY / FAIL_FAST / GIVE_UP by its
        ``retry_action`` (an unknown action retries)."""
        action = getattr(exc, "retry_action", RETRY)
        return action if action in _ACTIONS else RETRY

    # -- backoff schedule --------------------------------------------------

    def backoff(self, attempt: int, rng=None) -> float:
        """Delay before retry number ``attempt`` (0-based), jittered."""
        if attempt < 0:
            attempt = 0
        delay = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if rng is not None and self.jitter > 0 and delay > 0:
            delay = float(rng.uniform(delay * (1.0 - self.jitter), delay))
        return delay

    # -- the retry loop ----------------------------------------------------

    def run(
        self,
        sim,
        operation: Callable[[], Generator],
        rng=None,
        on_failure: Optional[Callable[[BaseException, int], None]] = None,
        budget=None,
    ) -> Generator:
        """Drive ``operation`` to completion under this policy.

        ``operation`` is a zero-argument callable returning a *fresh*
        generator per call (generators are single-shot, so the retry
        loop needs a factory, not a generator).  Only a
        :class:`CloudError` is classified: any other exception
        propagates at once, unreported.  Fail-fast and give-up cloud
        errors propagate after the first attempt; retryable ones are
        re-attempted up to ``max_attempts`` times with jittered
        exponential backoff in virtual time.  ``on_failure(exc, attempt)``
        is invoked before each backoff — schedulers use it to feed the
        throughput estimator.  ``budget`` (a
        :class:`~repro.core.degrade.DeadlineBudget`) stops further
        retries once the round's deadline passes: the current error
        propagates instead of backing off into a deadline the caller
        has already blown.
        """
        attempt = 1
        while True:
            try:
                value = yield from operation()
            except CloudError as exc:
                action = self.classify(exc)
                exhausted = attempt >= self.max_attempts or (
                    budget is not None and budget.expired
                )
                outcome = action
                if action is RETRY and exhausted:
                    outcome = "exhausted"
                if OBS.enabled:
                    OBS.retry_outcome(sim.now, outcome, exc)
                if outcome is not RETRY:
                    raise
                if on_failure is not None:
                    on_failure(exc, attempt)
                delay = self.backoff(attempt - 1, rng)
                if delay > 0:
                    span = None
                    if OBS.enabled:
                        span, _ = OBS.begin(
                            "retry_wait", t=sim.now, track="retry",
                            attempt=attempt, error=type(exc).__name__,
                        )
                    yield sim.timeout(delay)
                    if span is not None:
                        OBS.end(span, t=sim.now)
                attempt += 1
                continue
            return value

