"""Smoke tests: the fast example scripts run to completion."""

import os
import runpy
import sys

import pytest

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
)


def run_example(name, argv=None, capsys=None):
    path = os.path.join(EXAMPLES, name)
    old_argv = sys.argv
    sys.argv = [path] + (argv or [])
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart_runs(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "conflicts detected" in out
    assert "done." in out


def test_local_folders_runs(tmp_path, capsys):
    run_example("local_folders.py", argv=[str(tmp_path)])
    out = capsys.readouterr().out
    assert "bob's folder now contains" in out
    assert "DES-CTR" in out


def test_reliability_outage_runs(capsys):
    run_example("reliability_outage.py")
    out = capsys.readouterr().out
    assert "CANNOT reconstruct" in out
    assert "recovered" in out


def test_vendor_switching_runs(capsys):
    run_example("vendor_switching.py")
    out = capsys.readouterr().out
    assert "No vendor ever had a veto" in out
