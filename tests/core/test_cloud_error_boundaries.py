"""Only a cloud error is a cloud's failure.

``gather_safe`` and ``RetryPolicy.run`` turn a :class:`CloudError` into
an outcome (a failed cloud, a retry verdict).  Anything else is a fault
of the calling code and must reach the caller as itself, not look like
a dead cloud.
"""

import pytest

from repro import obs
from repro.cloud import RequestFailedError
from repro.core.retry import RetryPolicy
from repro.core.util import gather_safe
from repro.simkernel import Simulator


def succeed(sim, value):
    yield sim.timeout(1.0)
    return value


def fail(sim, exc):
    yield sim.timeout(0.5)
    raise exc


def test_gather_safe_reports_cloud_errors_as_outcomes():
    sim = Simulator()
    error = RequestFailedError("c1", "blip")
    outcomes = sim.run_process(gather_safe(
        sim, [succeed(sim, "a"), fail(sim, error), succeed(sim, "c")]
    ))
    assert outcomes == [(True, "a"), (False, error), (True, "c")]


def test_gather_safe_lets_a_programming_error_through():
    sim = Simulator()
    with pytest.raises(TypeError, match="bug"):
        sim.run_process(gather_safe(
            sim, [succeed(sim, "a"), fail(sim, TypeError("bug"))]
        ))


def test_retry_run_neither_classifies_nor_reports_a_programming_error():
    sim = Simulator()
    calls = []

    def operation():
        calls.append(sim.now)
        return fail(sim, TypeError("bug"))

    with obs.isolated(sim=sim) as (_tracer, metrics):
        with pytest.raises(TypeError, match="bug"):
            sim.run_process(RetryPolicy().run(sim, operation))
        reported = metrics.snapshot()["counters"]
    assert calls == [0.0]
    assert not any(key.startswith("retry_outcome") for key in reported)
