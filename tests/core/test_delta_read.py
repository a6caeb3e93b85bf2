"""A reader round downloads the base only after a fold.

Three devices share one fleet: device0 edits one file per round, and
device1 and device2 sync after each of its rounds.  A fresh delta's
marker names the base it extends, so a reader that already holds that
base fetches only the delta; it downloads the base when it bootstraps
and once per fold it applies.  Before markers named their base, every
reader round downloaded it.
"""

import numpy as np

from _sched_env import log_requests
from repro.core.config import UniDriveConfig
from repro.workloads import make_fleet

#: λ = 4 KiB: an edit appends ≈ 0.7 KiB of records, so the delta folds
#: every sixth round (rounds 0, 6 and 12 publish a base).
CONFIG = UniDriveConfig(
    theta=64 * 1024, lock_backoff_max=1.0,
    delta_merge_ratio=1000.0, delta_merge_bytes=4096,
)
BASE = f"{CONFIG.meta_dir}/base"
ROUNDS = 14


def folder(device):
    return {path: device.fs.read_file(path) for path in device.fs.paths()}


def test_readers_download_the_base_only_after_a_fold():
    sim, _clouds, devices = make_fleet(3, config=CONFIG)
    editor, *readers = devices
    logs = {device.device: log_requests(sim, device.connections)
            for device in devices}
    rng = np.random.default_rng(11)
    for i in range(6):
        editor.fs.write_file(
            f"/d/f{i}", rng.integers(0, 256, 2048, dtype=np.uint8).tobytes(),
            mtime=sim.now,
        )

    folds = []
    fetched = {reader.device: [] for reader in readers}
    for round_ in range(ROUNDS):
        if round_:
            path = f"/d/f{round_ % 6}"
            edited = bytearray(editor.fs.read_file(path))
            edited[16 * round_:16 * round_ + 16] = bytes(16)
            editor.fs.write_file(path, bytes(edited), mtime=sim.now)
        before = len(logs[editor.device])
        sim.run_process(editor.sync())
        folds.append(any(
            path == BASE for *_, path, _outcome in logs[editor.device][before:]
        ))
        for reader in readers:
            before = len(logs[reader.device])
            sim.run_process(reader.sync())
            fetched[reader.device].append(sum(
                1 for *_, path, outcome in logs[reader.device][before:]
                if path == BASE and outcome == "ok"
            ))
            assert folder(reader) == folder(editor)
    # The first round publishes the first base; later folds follow λ.
    assert folds[0] and sum(folds[1:]) >= 1
    for reader in readers:
        assert fetched[reader.device] == [int(fold) for fold in folds]
