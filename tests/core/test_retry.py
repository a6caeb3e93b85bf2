"""Unit tests for the unified retry/backoff policy."""

import numpy as np
import pytest

from repro.cloud import (
    CloudError,
    CloudUnavailableError,
    NotFoundError,
    QuotaExceededError,
    RequestFailedError,
)
from repro.core.retry import FAIL_FAST, GIVE_UP, RETRY, RetryPolicy
from repro.simkernel import Simulator


def make_op(sim, outcomes):
    """An operation factory scripted to raise/return per attempt."""
    state = {"calls": 0}

    def op():
        item = outcomes[state["calls"]]
        state["calls"] += 1
        yield sim.timeout(0.001)
        if isinstance(item, Exception):
            raise item
        return item

    return op, state


# -- classification ---------------------------------------------------------


def test_classification_follows_error_taxonomy():
    assert RetryPolicy.classify(RequestFailedError("c")) == RETRY
    assert RetryPolicy.classify(CloudError("c")) == RETRY
    assert RetryPolicy.classify(CloudUnavailableError("c")) == FAIL_FAST
    assert RetryPolicy.classify(NotFoundError("c")) == GIVE_UP
    assert RetryPolicy.classify(QuotaExceededError("c")) == GIVE_UP


def test_classification_tolerates_unknown_action():
    class WeirdError(CloudError):
        retry_action = "reboot-the-universe"

    assert RetryPolicy.classify(WeirdError("c")) == RETRY


# -- backoff schedule -------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0)
    assert policy.backoff(0) == 1.0
    assert policy.backoff(1) == 2.0
    assert policy.backoff(2) == 4.0
    assert policy.backoff(3) == 5.0  # capped
    assert policy.backoff(10) == 5.0


def test_backoff_jitter_bounds():
    policy = RetryPolicy(base_delay=4.0, multiplier=2.0, jitter=0.5)
    rng = np.random.default_rng(0)
    for attempt in range(4):
        ceiling = min(policy.max_delay,
                      policy.base_delay * policy.multiplier ** attempt)
        for _ in range(50):
            delay = policy.backoff(attempt, rng)
            assert ceiling * 0.5 <= delay <= ceiling


def test_backoff_without_rng_is_deterministic():
    policy = RetryPolicy(base_delay=1.0, jitter=0.5)
    assert policy.backoff(2) == policy.backoff(2) == 4.0


def test_validation_errors():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


# -- the retry loop ---------------------------------------------------------


def test_run_retries_transients_until_success():
    sim = Simulator()
    policy = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0)
    op, state = make_op(sim, [
        RequestFailedError("c"), RequestFailedError("c"), "ok",
    ])
    result = sim.run_process(policy.run(sim, op))
    assert result == "ok"
    assert state["calls"] == 3
    # Two backoffs: 1.0 + 2.0 (plus three 1 ms attempts).
    assert sim.now == pytest.approx(3.003)


def test_run_exhausts_attempt_budget():
    sim = Simulator()
    policy = RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.0)
    op, state = make_op(sim, [RequestFailedError("c")] * 5)
    with pytest.raises(RequestFailedError):
        sim.run_process(policy.run(sim, op))
    assert state["calls"] == 3


def test_run_fails_fast_on_unavailable():
    sim = Simulator()
    policy = RetryPolicy(max_attempts=4)
    op, state = make_op(sim, [CloudUnavailableError("c")] * 4)
    with pytest.raises(CloudUnavailableError):
        sim.run_process(policy.run(sim, op))
    assert state["calls"] == 1  # a single attempt, no backoff


def test_run_gives_up_on_deterministic_errors():
    sim = Simulator()
    policy = RetryPolicy(max_attempts=4)
    for exc in (NotFoundError("c"), QuotaExceededError("c")):
        op, state = make_op(sim, [exc] * 4)
        with pytest.raises(type(exc)):
            sim.run_process(policy.run(sim, op))
        assert state["calls"] == 1


def test_run_on_failure_hook_sees_each_transient():
    sim = Simulator()
    policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
    seen = []
    op, _ = make_op(sim, [
        RequestFailedError("c"), RequestFailedError("c"), "ok",
    ])
    sim.run_process(policy.run(
        sim, op, on_failure=lambda exc, attempt: seen.append(attempt)
    ))
    assert seen == [1, 2]


def test_run_jitter_consumes_rng():
    sim = Simulator()
    policy = RetryPolicy(max_attempts=2, base_delay=10.0, jitter=0.5)
    rng = np.random.default_rng(7)
    op, _ = make_op(sim, [RequestFailedError("c"), "ok"])
    sim.run_process(policy.run(sim, op, rng=rng))
    # Jittered: strictly inside [5, 10] (plus the 1 ms attempts).
    assert 5.0 < sim.now < 10.01
