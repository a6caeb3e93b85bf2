"""Importing the package pulls in nothing heavier than numpy.

Every process that imports ``repro`` — each benchmark repeat, every
tool, the CLI, each test session — pays the import before any work
starts, so the check runs in a fresh interpreter: this session's own
modules cannot mask what a cold import loads.
"""

import os
import subprocess
import sys

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

_SCRIPT = """\
import sys
sys.path.insert(0, sys.argv[1])
import repro, repro.cli, repro.workloads
print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))
"""


def test_cold_import_does_not_load_scipy():
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, _SRC],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
