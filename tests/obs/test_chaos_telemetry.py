"""Chaos acceptance: a 2-of-5 cloud outage seen through the telemetry.

One shared-folder campaign with two clouds down for two virtual minutes
must (a) drive exactly the affected clouds through a clean
healthy → unavailable → … → healthy arc without flapping, (b) fire the
sync-latency burn-rate alert for the incident window and *only* the
incident window, and (c) still converge with no lost updates — the
outage is observable, not fatal.

The telemetry object is pre-installed (rather than passing
``telemetry=True``) so the live engine stays queryable for
mid-incident SLO evaluations after the run.
"""

import pytest

from repro import obs
from repro.obs.health import HEALTHY, UNAVAILABLE
from repro.obs.telemetry import Telemetry
from repro.workloads.shared import SharedScenario, run_shared

OUTAGE_START, OUTAGE_END = 100.0, 220.0
SCENARIO = SharedScenario(
    writers=4,
    rounds=8,
    policy="retain-both",
    seed=0,
    outages=((0, OUTAGE_START, OUTAGE_END), (1, OUTAGE_START, OUTAGE_END)),
)


@pytest.fixture(scope="module")
def chaos():
    """Run the campaign once; every test reads the same evidence."""
    telemetry = Telemetry()
    with obs.isolated(telemetry=telemetry, tracer=False, metrics=False):
        result = run_shared(SCENARIO)
    return result, telemetry


def test_outage_is_survivable(chaos):
    result, _ = chaos
    assert result.converged
    assert result.lost_updates == []
    assert result.stalled_devices == []


def test_affected_clouds_arc_without_flapping(chaos):
    _, telemetry = chaos
    for cloud in ("c0", "c1"):
        transitions = telemetry.health.transitions(cloud)
        states = [tr["to"] for tr in transitions]
        # Forced down at the fault, recovered by quiescence, and the
        # whole arc fits in a handful of transitions — hysteresis and
        # dwell forbid ping-ponging on the way back up.
        assert states[0] == UNAVAILABLE
        assert transitions[0]["t"] == OUTAGE_START
        assert transitions[0]["forced"] is True
        assert states[-1] == HEALTHY
        assert len(states) <= 4
        assert telemetry.health.state(cloud) == HEALTHY


def test_unaffected_clouds_never_transition(chaos):
    _, telemetry = chaos
    for cloud in ("c2", "c3", "c4"):
        assert telemetry.health.transitions(cloud) == []
        assert telemetry.health.state(cloud) == HEALTHY


def _fired(rows, slo):
    return [row for row in rows if row["slo"] == slo and row["fired"]]


def test_burn_rate_alert_brackets_the_incident(chaos):
    _, telemetry = chaos
    # Mid-incident both burn windows are saturated: rounds that span the
    # outage blow through the latency target for every tenant sharing
    # the folder.
    mid = _fired(telemetry.slo.evaluate(230.0), "sync_latency")
    assert mid, "incident did not fire the sync_latency burn alert"
    for row in mid:
        rule = row["rules"][0]
        assert rule["burn_long"] > rule["threshold"]
        assert rule["burn_short"] > rule["threshold"]
    # Before the outage bites and after recovery, nothing fires.
    assert not _fired(telemetry.slo.evaluate(90.0), "sync_latency")
    assert not _fired(telemetry.slo.evaluate(300.0), "sync_latency")
