"""Health scoreboard: scoring, hysteresis, dwell and outage pinning."""

import pytest

from repro import obs
from repro.obs.health import (
    DEGRADED,
    HEALTHY,
    UNAVAILABLE,
    HealthScoreboard,
)


def _board(**kwargs):
    defaults = dict(min_dwell=5.0)
    defaults.update(kwargs)
    return HealthScoreboard(**defaults)


def test_unknown_cloud_is_optimistically_healthy():
    board = _board()
    assert board.state("never-seen") == HEALTHY
    assert board.score("never-seen") == 1.0
    assert board.transitions("never-seen") == []


def test_successes_keep_a_cloud_healthy():
    board = _board()
    for i in range(50):
        board.transfer("c0", float(i), True)
    assert board.state("c0") == HEALTHY
    assert board.score("c0") == pytest.approx(1.0)
    assert board.transitions("c0") == []


def test_failures_degrade_then_unavail_with_dwell_between():
    board = _board()
    t = 0.0
    while board.state("c0") == HEALTHY:
        t += 1.0
        board.transfer("c0", t, False, retry_action="fail-fast")
    assert board.state("c0") in (DEGRADED, UNAVAILABLE)
    first = board.transitions("c0")[0]
    while board.state("c0") != UNAVAILABLE:
        t += 1.0
        board.transfer("c0", t, False, retry_action="fail-fast")
    second = board.transitions("c0")[-1]
    # The dwell keeps the two transitions at least min_dwell apart.
    assert second["t"] - first["t"] >= board.min_dwell


def test_recovery_requires_the_higher_threshold():
    board = _board()
    t = 0.0
    while board.state("c0") != DEGRADED:
        t += 1.0
        board.transfer("c0", t, False, retry_action="retry")
    # Push the score back into the hysteresis band: above the
    # degradation threshold but not above the recovery threshold.
    while board.score("c0") <= board.degraded_below:
        t += 10.0  # past the dwell each step
        board.transfer("c0", t, True)
        if board.score("c0") > board.healthy_above:
            break
    if board.score("c0") <= board.healthy_above:
        assert board.state("c0") == DEGRADED  # band: no flap back
    while board.score("c0") <= board.healthy_above:
        t += 10.0
        board.transfer("c0", t, True)
    t += 10.0
    board.transfer("c0", t, True)
    assert board.state("c0") == HEALTHY


def test_retryable_failures_are_half_evidence():
    fail_fast, retryable = _board(), _board()
    for i in range(10):
        fail_fast.transfer("c", float(i), False, retry_action="fail-fast")
        retryable.transfer("c", float(i), False, retry_action="retry")
    assert retryable.score("c") > fail_fast.score("c")


def test_outage_pins_unavailable_and_score_gates_recovery():
    board = _board()
    for i in range(20):
        board.transfer("c0", float(i), True)
    board.fault("c0", 100.0, "outage-begin")
    assert board.state("c0") == UNAVAILABLE
    assert board.score("c0") == 0.0
    assert board.transitions("c0")[-1]["forced"] is True
    # Evidence during the window cannot unpin the state (transfers at a
    # down cloud fail fast, keeping the score on the floor).
    for i in range(10):
        board.transfer("c0", 101.0 + i, False, retry_action="fail-fast")
    assert board.state("c0") == UNAVAILABLE
    assert board.score("c0") == 0.0
    board.fault("c0", 220.0, "outage-end")
    # The provider says it is back; the state stays put until the score
    # itself clears the recovery threshold.
    assert board.state("c0") == UNAVAILABLE
    t = 221.0
    while board.state("c0") != HEALTHY:
        t += 1.0
        board.transfer("c0", t, True)
    states = [tr["to"] for tr in board.transitions("c0")]
    assert states[0] == UNAVAILABLE
    assert states[-1] == HEALTHY
    assert len(states) <= 3  # no flapping on the way back


def test_estimator_drift_shaves_score_but_is_capped():
    board = _board()
    for i in range(30):
        board.transfer("c0", float(i), True)
        board.estimator_error("c0", float(i), 10.0)  # wildly wrong
    assert board.score("c0") == pytest.approx(
        1.0 - board.est_err_cap
    )
    assert board.state("c0") == HEALTHY  # capped penalty cannot flap


def test_transition_emits_trace_event():
    with obs.isolated() as (tracer, _):
        board = _board()
        board.fault("c0", 7.0, "outage-begin")
        events = [r for r in tracer.records
                  if r.kind == "event" and r.name == "health_transition"]
    assert len(events) == 1
    assert events[0].track == "c0"
    assert events[0].attrs["to"] == UNAVAILABLE
    assert events[0].attrs["forced"] is True


def test_invalid_thresholds_rejected():
    with pytest.raises(ValueError):
        HealthScoreboard(alpha=0.0)
    with pytest.raises(ValueError):
        HealthScoreboard(degraded_below=0.9, healthy_above=0.8)
