#!/usr/bin/env python
"""Quickstart: two devices syncing a folder over five simulated clouds.

Run with:  python examples/quickstart.py

Demonstrates the core UniDrive loop end to end — content-defined
segmentation, non-systematic Reed-Solomon striping, the quorum lock,
encrypted metadata with Delta-sync, and conflict handling — on
"instant" clouds, so it finishes in well under a second.
"""

import numpy as np

from repro import SimulatedCloud, Simulator, UniDriveConfig
from repro.workloads import make_device


def main():
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"cloud{i}") for i in range(5)]
    config = UniDriveConfig(theta=256 * 1024)
    laptop = make_device(sim, clouds, "laptop", seed=1, config=config)
    desktop = make_device(sim, clouds, "desktop", seed=2, config=config)

    print("== 1. laptop writes files and syncs ==")
    laptop.fs.write_file("/notes/todo.txt", b"buy milk\nship unidrive\n",
                         mtime=sim.now)
    payload = np.random.default_rng(0).integers(
        0, 256, size=300_000, dtype=np.uint8
    ).tobytes()
    laptop.fs.write_file("/photos/cat.jpg", payload, mtime=sim.now)
    report = sim.run_process(laptop.sync())
    print(f"   uploaded: {report.uploaded_files}")
    print(f"   committed metadata version: {report.committed_version}")

    print("== 2. desktop syncs and receives them ==")
    report = sim.run_process(desktop.sync())
    print(f"   downloaded: {report.downloaded_files}")
    assert desktop.fs.read_file("/photos/cat.jpg") == payload

    print("== 3. blocks in the clouds are opaque shares ==")
    for cloud in clouds:
        blocks = cloud.store.list_folder("/unidrive/blocks")
        print(f"   {cloud.cloud_id}: {len(blocks)} erasure-coded blocks, "
              f"{cloud.store.used_bytes} bytes")

    print("== 4. a concurrent edit becomes a conflict copy ==")
    laptop.fs.write_file("/notes/todo.txt", b"laptop version", mtime=sim.now)
    desktop.fs.write_file("/notes/todo.txt", b"desktop version",
                          mtime=sim.now)
    sim.run_process(laptop.sync())  # laptop commits first
    report = sim.run_process(desktop.sync())
    print(f"   conflicts detected: {report.conflicts}")
    print(f"   '/notes/todo.txt' is now: "
          f"{desktop.fs.read_file('/notes/todo.txt')!r}")
    copy = "/notes/todo.txt.conflict-desktop"
    print(f"   the losing edit is preserved at {copy!r}: "
          f"{desktop.fs.read_file(copy)!r}")

    print("== 5. deletions propagate and blocks are garbage collected ==")
    laptop.fs.delete_file("/photos/cat.jpg")
    sim.run_process(laptop.sync())
    sim.run_process(desktop.sync())
    sim.run()  # drain background block deletions
    total_blocks = sum(
        len(c.store.list_folder("/unidrive/blocks")) for c in clouds
    )
    print(f"   desktop still has cat.jpg? {desktop.fs.exists('/photos/cat.jpg')}")
    print(f"   blocks remaining across clouds: {total_blocks} "
          "(todo.txt and its conflict copy; cat.jpg's blocks are gone)")
    print("done.")


if __name__ == "__main__":
    main()
