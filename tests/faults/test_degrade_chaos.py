"""Chaos acceptance: the degradation control plane under 1-slow + 1-down.

The PR-10 acceptance scenario — five clouds, one browned out (latency
x200, bandwidth /200, still answering correctly) and one fully down,
with overlapping windows — driven through the shared-folder scenario
engine (every client runs the control plane).  Asserts the four
contract points:

* hedged reads keep the fleet moving (hedges actually fire, no device
  stalls, every round lands inside the horizon);
* brownout commits carry redundancy debt which the post-recovery scrub
  repays *fully*;
* zero lost updates and full convergence despite the chaos; and
* no breaker flaps — at most 6 transitions for any single breaker
  (closed -> open -> half-open -> closed, at most twice).
"""

import pytest

from repro.workloads.shared import SharedScenario, run_shared

chaos_smoke = pytest.mark.chaos_smoke

ROUNDS = 6
HORIZON = ROUNDS * 60.0


def degrade_scenario(**overrides):
    base = dict(
        writers=3,
        rounds=ROUNDS,
        seed=7,
        # Cloud 1 browns out for half the run; cloud 2 dies for half,
        # overlapping — at the worst point only 3 of 5 clouds are whole.
        slow=((1, 0.1 * HORIZON, 0.6 * HORIZON, 200.0),),
        outages=((2, 0.2 * HORIZON, 0.7 * HORIZON),),
        scrub_after=True,
    )
    base.update(overrides)
    return SharedScenario(**base)


@chaos_smoke
def test_one_slow_one_down_meets_the_acceptance_bar():
    result = run_shared(degrade_scenario())

    # Zero lost updates, full convergence, nobody stalled.
    assert result.lost_updates == []
    assert result.converged
    assert result.stalled_devices == []

    # Hedged reads routed around the slow cloud.
    assert result.hedges_fired > 0
    assert result.hedged_bytes > 0

    # Brownout commits recorded debt; the scrub repaid all of it.
    assert result.debt_after_rounds > 0
    assert result.debt_after_scrub == 0
    assert result.debt_repaid == result.debt_after_rounds

    # Anti-flapping: no single breaker transitioned more than 6 times.
    assert result.breaker_transitions, "breakers must have engaged"
    worst = max(result.breaker_transitions.values())
    assert worst <= 6, result.breaker_transitions
    # Only the *down* cloud may trip a breaker: the slow cloud answers
    # correctly, so it must never produce failure evidence.
    assert result.breaker_transitions.get("c1", 0) == 0


def test_round_deadline_budget_is_honoured():
    """With a per-round deadline configured, rounds still complete under
    chaos (hedging + fail-fast keep them inside the budget) and the
    fleet converges with nothing lost."""
    result = run_shared(degrade_scenario(round_deadline=55.0))
    assert result.lost_updates == []
    assert result.converged
    assert result.stalled_devices == []
    assert result.debt_after_scrub == 0
