"""Property-based end-to-end sync: random edit scripts always converge.

Hypothesis drives short random sequences of writes / edits / deletes on
two devices (interleaved with syncs); after a final round of syncs both
folders must agree on every non-conflicted path, and every conflicted
path must retain both versions (original + conflict copy).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import UniDriveConfig
from repro.workloads import make_fleet

CONFIG = UniDriveConfig(theta=64 * 1024)
PATHS = ["/a", "/b", "/c"]

operation = st.tuples(
    st.integers(min_value=0, max_value=1),  # device
    st.sampled_from(["write", "delete", "sync"]),
    st.sampled_from(PATHS),
    st.integers(min_value=0, max_value=2**31 - 1),  # content seed
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(operation, min_size=1, max_size=12))
def test_random_edit_scripts_converge(script):
    sim, _, clients = make_fleet(2, config=CONFIG)
    for device, action, path, seed in script:
        client = clients[device]
        if action == "write":
            content = np.random.default_rng(seed).integers(
                0, 256, size=2000 + seed % 5000, dtype=np.uint8
            ).tobytes()
            client.fs.write_file(path, content, mtime=sim.now)
        elif action == "delete":
            client.fs.delete_file(path)
        else:
            sim.run_process(client.sync())
    # Quiesce: a few alternating rounds settle all pending state
    # (including conflict copies, which sync as new files).
    for _ in range(3):
        for client in clients:
            sim.run_process(client.sync())
    fs0, fs1 = clients[0].fs, clients[1].fs
    assert fs0.paths() == fs1.paths()
    for path in fs0.paths():
        assert fs0.read_file(path) == fs1.read_file(path), path
    # Metadata equality: both devices agree on the image version.
    assert (clients[0].image.version.counter
            == clients[1].image.version.counter)
