#!/usr/bin/env python
"""Escaping vendor lock-in: add and remove clouds live (paper §6.2).

Run with:  python examples/vendor_switching.py

60.55% of the paper's survey participants feared vendor lock-in.  With
UniDrive no provider ever holds enough of your data to hold it hostage:
this script enrolls a new cloud (it adopts its fair share from the
others), then drops an old provider entirely (its share is re-encoded
onto the survivors) — all while files stay fully readable.
"""

import numpy as np

from repro import SimulatedCloud, Simulator, UniDriveConfig
from repro.workloads import connect, make_device


def block_census(clouds):
    census = {}
    for cloud in clouds:
        try:
            census[cloud.cloud_id] = len(
                cloud.store.list_folder("/unidrive/blocks")
            )
        except Exception:  # the departed provider's folders are gone
            census[cloud.cloud_id] = 0
    return census


def main():
    sim = Simulator()
    clouds = [
        SimulatedCloud(sim, name)
        for name in ("dropbox", "onedrive", "gdrive", "baidupcs", "dbank")
    ]
    config = UniDriveConfig(theta=128 * 1024)
    client = make_device(sim, clouds, "laptop", seed=0, config=config)

    rng = np.random.default_rng(1)
    files = {
        f"/docs/report{i}.pdf": rng.integers(
            0, 256, size=200_000, dtype=np.uint8
        ).tobytes()
        for i in range(3)
    }
    for path, data in files.items():
        client.fs.write_file(path, data, mtime=sim.now)
    sim.run_process(client.sync())
    print("initial block placement:", block_census(clouds))

    print("\n== a new provider launches; enroll it ==")
    newcloud = SimulatedCloud(sim, "newcloud")
    (connection,) = connect(sim, [newcloud], seed=99)
    sim.run_process(client.add_cloud(connection))
    census = block_census(clouds + [newcloud])
    print("after add_cloud:", census)
    assert census["newcloud"] > 0

    print("\n== dbank raises prices; drop it entirely ==")
    sim.run_process(client.remove_cloud("dbank"))
    census = block_census(clouds + [newcloud])
    print("after remove_cloud:", census)
    assert census["dbank"] == 0

    print("\n== every file is still perfectly readable ==")
    # Prove it from a second, fresh device that never saw the originals.
    active_clouds = [c for c in clouds if c.cloud_id != "dbank"] + [newcloud]
    # Note: metadata still references the old cloud set; the fresh
    # device only needs any K_r of the clouds that hold blocks.
    reader = make_device(sim, active_clouds, "fresh-device", seed=50,
                         config=config)
    sim.run_process(reader.sync())
    for path, data in files.items():
        assert reader.fs.read_file(path) == data, path
    print(f"   fresh device reconstructed all {len(files)} files. "
          "No vendor ever had a veto.")


if __name__ == "__main__":
    main()
