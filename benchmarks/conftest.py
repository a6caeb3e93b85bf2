"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation: it runs the experiment once inside the pytest-benchmark
harness (wall-clock time of the simulation is what gets benchmarked),
prints the same rows/series the paper reports, asserts the paper's
qualitative *shape* (who wins, by roughly what factor), and writes the
rendered table to ``benchmarks/results/`` for EXPERIMENTS.md.
"""

import os
import sys

import pytest

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")


@pytest.fixture(autouse=True, scope="session")
def _global_telemetry():
    """Optionally run every benchmark with fleet telemetry recording.

    ``REPRO_TELEMETRY=1`` installs a live :class:`repro.obs.Telemetry`
    into the process hub for the whole session.  The goldens check uses
    this to *prove* the zero-interference contract end-to-end: rerun
    the deterministic figure/table benchmarks with recording on and the
    rendered results must stay byte-identical.
    """
    if os.environ.get("REPRO_TELEMETRY") != "1":
        yield
        return
    from repro import obs

    with obs.isolated(telemetry=True, tracer=False, metrics=False):
        yield


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def runner(fn):
        box = {}

        def call():
            box["value"] = fn()

        benchmark.pedantic(call, rounds=1, iterations=1)
        return box["value"]

    return runner


@pytest.fixture
def report(request):
    """Print a rendered table and persist it under benchmarks/results."""

    def emit(title, lines):
        text = "\n".join([title, "=" * len(title), *lines, ""])
        print("\n" + text)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        name = request.node.name.replace("[", "_").replace("]", "")
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
            handle.write(text)

    return emit


def fmt(value, width=9, digits=2):
    """Fixed-width number formatting for report rows."""
    if value is None:
        return " " * (width - 3) + "n/a"
    return f"{value:{width}.{digits}f}"


@pytest.fixture
def fmt_cell():
    return fmt
