"""A steady-state sync round costs O(edit), not O(folder).

Counts the metadata records and file stats a round constructs: with
copy-on-write images and a stat-cached scan, editing one file of a
150-file folder and of a 600-file folder builds exactly as many.  (A
reader round that meets a freshly folded base decodes the whole image;
folds are out of reach here, so every round after the first extends
the delta.)
"""

import numpy as np
import pytest

from repro.core.config import UniDriveConfig
from repro.core.metadata import FileEntry, SegmentRecord
from repro.fsmodel.virtual_fs import FileStat
from repro.workloads import make_fleet

CONFIG = UniDriveConfig(
    theta=64 * 1024, lock_backoff_max=1.0,
    delta_merge_ratio=1000.0, delta_merge_bytes=10 ** 9,
)


@pytest.fixture
def constructions(monkeypatch):
    """Per-class counts of ``__init__`` calls while the fixture lives."""
    counts = {}
    for cls in (FileEntry, SegmentRecord, FileStat):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def edit_rounds(n_files, counts):
    """Sync an ``n_files`` folder to two devices, edit one file twice;
    return what the second edit's editor and reader rounds built."""
    sim, _, devices = make_fleet(2, config=CONFIG)
    editor, reader = devices
    rng = np.random.default_rng(7)
    folder = {
        f"/d/f{i:04d}": rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
        for i in range(n_files)
    }
    for path, content in folder.items():
        editor.fs.write_file(path, content, mtime=sim.now)
    path = "/d/f0000"
    built = []
    for wave in range(3):
        if wave:
            edited = bytearray(editor.fs.read_file(path))
            edited[100 + 16 * wave:116 + 16 * wave] = bytes(16)
            editor.fs.write_file(path, bytes(edited), mtime=sim.now)
        for device in devices:
            counts.clear()
            sim.run_process(device.sync())
            built.append(dict(counts))
    assert reader.fs.read_file(path) == editor.fs.read_file(path)
    return built[-2:]  # the second edit: editor round, reader round


def test_steady_round_builds_the_same_at_any_folder_size(constructions):
    small = edit_rounds(150, constructions)
    large = edit_rounds(600, constructions)
    assert small == large
    assert all(count <= 4 for built in small for count in built.values())
