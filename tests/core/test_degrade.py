"""Degradation control plane: breaker state machine + debt properties.

Two Hypothesis suites back the PR-10 robustness claims:

* the :class:`~repro.core.degrade.CircuitBreaker` never opens without
  failure evidence, admits at most ``probe_quota`` dispatches per
  half-open episode, and is a deterministic function of its
  (timestamped) call sequence; and
* brownout redundancy debt is exact bookkeeping — a scrub repayment
  after the cloud recovers restores the full fair-share placement of
  every segment, and repaying twice is a no-op.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scrubber, UniDriveConfig
from repro.core.degrade import (
    CLOSED,
    HALF_OPEN,
    HEDGE_LATENCY_FACTOR,
    OPEN,
    CircuitBreaker,
    DeadlineBudget,
    DegradeController,
)
from repro.core.placement import normal_block_count
from repro.simkernel import Simulator
from repro.workloads import make_fleet

# ---------------------------------------------------------------------------
# Breaker state machine — unit anchors.
# ---------------------------------------------------------------------------


def test_breaker_opens_after_threshold_transients():
    b = CircuitBreaker("c0", failure_threshold=3, cooldown=30.0)
    b.record_failure(1.0)
    b.record_failure(2.0)
    assert b.state == CLOSED
    b.record_failure(3.0)
    assert b.state == OPEN
    assert [(src, dst) for _, src, dst in b.transitions] == [(CLOSED, OPEN)]


def test_fatal_failure_opens_immediately():
    b = CircuitBreaker("c0", failure_threshold=3)
    b.record_failure(1.0, fatal=True)
    assert b.state == OPEN


def test_success_resets_transient_count():
    b = CircuitBreaker("c0", failure_threshold=2)
    b.record_failure(1.0)
    b.record_success(2.0)
    b.record_failure(3.0)
    assert b.state == CLOSED


def test_cooldown_then_probe_success_closes():
    b = CircuitBreaker("c0", failure_threshold=1, cooldown=10.0,
                       probe_quota=1, close_after=1)
    b.record_failure(0.0, fatal=True)
    assert not b.admits(5.0)          # still cooling down
    assert b.admits(10.0)             # half-open: one probe slot
    assert b.state == HALF_OPEN
    b.note_dispatch(10.0)
    assert not b.admits(10.5)         # quota consumed, probe in flight
    b.record_success(11.0)
    assert b.state == CLOSED
    assert b.admits(11.0)


def test_failed_probe_reopens_and_rearms_cooldown():
    b = CircuitBreaker("c0", failure_threshold=1, cooldown=10.0)
    b.record_failure(0.0, fatal=True)
    assert b.admits(10.0)
    b.note_dispatch(10.0)
    b.record_failure(12.0)
    assert b.state == OPEN
    assert not b.admits(20.0)         # cooldown restarts from the probe
    assert b.admits(22.0)


# ---------------------------------------------------------------------------
# Breaker state machine — Hypothesis properties.
# ---------------------------------------------------------------------------

# An op is (kind, dt): the virtual clock advances by dt before the call.
_BENIGN_OPS = st.lists(
    st.tuples(
        st.sampled_from(["success", "dispatch", "admit"]),
        st.floats(min_value=0.0, max_value=120.0,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=60,
)

_ANY_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["success", "failure", "fatal", "dispatch", "admit"]
        ),
        st.floats(min_value=0.0, max_value=120.0,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=80,
)


def _drive(breaker, ops):
    """Replay an op sequence the way the data path would: a dispatch
    only happens when ``admits`` says so.  Returns the number of
    admitted dispatches per half-open episode."""
    t = 0.0
    episodes = []
    for kind, dt in ops:
        t += dt
        was_half_open = False
        if kind in ("dispatch", "admit"):
            was_half_open = breaker.admits(t) and breaker.state == HALF_OPEN
        if kind == "success":
            breaker.record_success(t)
        elif kind == "failure":
            breaker.record_failure(t)
        elif kind == "fatal":
            breaker.record_failure(t, fatal=True)
        elif kind == "dispatch" and breaker.admits(t):
            if was_half_open:
                # New episode begins when the probe counter was reset.
                if breaker.probes_issued == 0:
                    episodes.append(0)
                breaker.note_dispatch(t)
                if not episodes:
                    episodes.append(0)
                episodes[-1] += 1
            else:
                breaker.note_dispatch(t)
        elif kind == "admit":
            breaker.admits(t)
    return episodes


@settings(max_examples=60, deadline=None)
@given(ops=_BENIGN_OPS)
def test_breaker_never_opens_without_failure_evidence(ops):
    """Successes, dispatches, and admission peeks alone can never trip
    the breaker — opening requires failure evidence."""
    b = CircuitBreaker("c0", failure_threshold=3)
    _drive(b, ops)
    assert b.state == CLOSED
    assert b.transitions == []


@settings(max_examples=60, deadline=None)
@given(ops=_ANY_OPS, quota=st.integers(min_value=1, max_value=3))
def test_breaker_bounds_half_open_probes(ops, quota):
    """No half-open episode ever admits more than ``probe_quota``
    dispatches before a probe outcome resolves the state."""
    b = CircuitBreaker("c0", failure_threshold=2, cooldown=10.0,
                       probe_quota=quota, close_after=1)
    episodes = _drive(b, ops)
    assert all(count <= quota for count in episodes)
    assert b.probes_issued <= quota


@settings(max_examples=60, deadline=None)
@given(ops=_ANY_OPS)
def test_breaker_is_deterministic(ops):
    """The same timestamped call sequence always yields the same
    transition history — no hidden randomness or ambient state."""
    a = CircuitBreaker("c0", failure_threshold=2, cooldown=10.0)
    b = CircuitBreaker("c0", failure_threshold=2, cooldown=10.0)
    _drive(a, ops)
    _drive(b, ops)
    assert a.transitions == b.transitions
    assert a.snapshot() == b.snapshot()


# ---------------------------------------------------------------------------
# Deadline budgets and controller plumbing.
# ---------------------------------------------------------------------------


def test_deadline_budget_clamps_and_expires():
    sim = Simulator()
    budget = DeadlineBudget(sim, 10.0)
    assert not budget.expired
    assert budget.clamp(30.0) == 10.0
    assert budget.clamp(4.0) == 4.0
    def advance():
        yield sim.timeout(12.0)

    sim.run_process(advance())
    assert budget.expired
    assert budget.remaining() == 0.0


def test_controller_round_budget_disabled_at_zero():
    config = UniDriveConfig(theta=64 * 1024)
    controller = DegradeController(config)
    assert controller.round_budget(Simulator()) is None


def test_hedge_threshold_requires_an_estimate():
    config = UniDriveConfig(theta=64 * 1024)
    controller = DegradeController(config)
    assert controller.hedge_threshold(float("inf"), 1024) is None
    assert controller.hedge_threshold(0.0, 1024) is None
    threshold = controller.hedge_threshold(1024.0, 1024)
    assert threshold == pytest.approx(HEDGE_LATENCY_FACTOR)


# ---------------------------------------------------------------------------
# Redundancy-debt bookkeeping — Hypothesis properties.
# ---------------------------------------------------------------------------


def _fill(fs, seed, n_files):
    """``n_files`` files of 96 KiB drawn from ``default_rng(seed + 50)``."""
    rng = np.random.default_rng(seed + 50)
    for i in range(n_files):
        content = rng.integers(0, 256, size=96 * 1024, dtype=np.uint8)
        fs.write_file(f"/f{i}", content.tobytes(), mtime=0.0)


def _fair_indices(client, record):
    normal = min(
        record.n,
        normal_block_count(
            record.k, client.config.k_reliability, len(client.connections)
        ),
    )
    return set(range(normal))


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_files=st.integers(min_value=1, max_value=4),
    down=st.integers(min_value=0, max_value=4),
)
def test_repay_after_debt_restores_fair_share_placement(seed, n_files,
                                                        down):
    """debt -> recover -> repay restores the exact fair-share index set
    of every segment, and a second repayment is a no-op."""
    config = UniDriveConfig(theta=64 * 1024)
    sim, clouds, (client,) = make_fleet(seed=seed, config=config)
    _fill(client.fs, seed, n_files)
    clouds[down].set_available(False)
    sim.run_process(client.sync())
    owed = {
        sid: sorted(rec.debt)
        for sid, rec in client.image.segments.items() if rec.debt
    }
    assert owed, "a dead cloud must leave redundancy debt behind"
    for sid, indices in owed.items():
        record = client.image.segments[sid]
        # Debt is exactly the unplaced fair-share indices.
        assert set(indices) == _fair_indices(client, record) - set(
            record.locations
        )

    clouds[down].set_available(True)

    def settle():
        cooldown = client.degrade.breaker(clouds[down].cloud_id).cooldown
        yield sim.timeout(cooldown + 1.0)

    sim.run_process(settle())
    scrubber = Scrubber(client)
    sim.run_process(scrubber.repay_debt())

    assert scrubber.owed_segments() == []
    for sid, rec in client.image.segments.items():
        assert rec.debt == []
        assert _fair_indices(client, rec) <= set(rec.locations)

    # Idempotence: repaying with no debt outstanding changes nothing.
    before = {
        sid: dict(rec.locations)
        for sid, rec in client.image.segments.items()
    }
    sim.run_process(scrubber.repay_debt())
    after = {
        sid: dict(rec.locations)
        for sid, rec in client.image.segments.items()
    }
    assert after == before


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    down=st.integers(min_value=0, max_value=4),
)
def test_healthy_commits_record_no_debt(seed, down):
    """Debt only exists when a commit actually browned out: with every
    cloud reachable the ledger stays empty (the over-provisioning
    indices past the fair share are not debt)."""
    sim, clouds, (client,) = make_fleet(
        seed=seed, config=UniDriveConfig(theta=64 * 1024))
    _fill(client.fs, seed, 2)
    sim.run_process(client.sync())
    assert all(
        rec.debt == [] for rec in client.image.segments.values()
    )
