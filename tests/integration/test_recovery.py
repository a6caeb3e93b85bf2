"""Device lifecycle: fresh bootstrap, crash recovery, reinstalls.

The server-less design means all durable state lives in the clouds; a
device can always be rebuilt from the metadata plus blocks.
"""

import numpy as np

from repro.cloud import SimulatedCloud
from repro.core import UniDriveConfig
from repro.fsmodel import VirtualFileSystem
from repro.simkernel import Simulator
from repro.workloads import make_device

CONFIG = UniDriveConfig(theta=64 * 1024)


def payload(seed, size=150 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def test_fresh_device_bootstraps_entire_folder():
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=1, config=CONFIG)
    files = {f"/dir/f{i}": payload(i) for i in range(5)}
    for path, data in files.items():
        writer.fs.write_file(path, data, mtime=sim.now)
    sim.run_process(writer.sync())
    # A brand-new device with an empty folder joins.
    newcomer = make_device(sim, clouds, "newcomer", seed=2, config=CONFIG)
    report = sim.run_process(newcomer.sync())
    assert sorted(report.downloaded_files) == sorted(files)
    for path, data in files.items():
        assert newcomer.fs.read_file(path) == data


def test_crash_before_metadata_commit_is_invisible():
    """Blocks-before-metadata: a crash after block upload but before the
    commit leaves no visible state; a later sync by the same device
    (fresh process, same folder) re-commits cleanly."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    fs = VirtualFileSystem()
    victim = make_device(sim, clouds, "victim", fs=fs, seed=3, config=CONFIG)
    fs.write_file("/doc", payload(10), mtime=sim.now)
    # Simulate the crash: run only the data-plane part by killing the
    # client right after its blocks are uploaded — easiest done by
    # breaking every cloud's metadata write and catching the failure.
    for cloud in clouds[1:]:
        cloud.set_available(False)
    try:
        sim.run_process(victim.sync())
    except Exception:
        pass
    if victim.lock.held:
        sim.run_process(victim.lock.release())
    for cloud in clouds[1:]:
        cloud.set_available(True)
    # Another device sees nothing (no committed metadata).
    observer = make_device(sim, clouds, "observer", seed=4, config=CONFIG)
    report = sim.run_process(observer.sync())
    assert report.downloaded_files == []
    # The "restarted" victim process (fresh client, same folder) syncs;
    # the bootstrap path treats the never-committed file as pending.
    reborn = make_device(sim, clouds, "victim", fs=fs, seed=5, config=CONFIG)
    sim.run_process(reborn.sync())
    report = sim.run_process(observer.sync())
    assert report.downloaded_files == ["/doc"]


def test_reinstall_with_existing_folder_converges():
    """A device wiped and reinstalled over its old (still-populated)
    sync folder reconciles by content identity — no re-upload, no
    duplicate, no clobber."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    fs = VirtualFileSystem()
    original = make_device(sim, clouds, "dev", fs=fs, seed=6, config=CONFIG)
    data = payload(20)
    fs.write_file("/kept", data, mtime=sim.now)
    sim.run_process(original.sync())
    # Reinstall: new client object, same folder contents, empty image.
    reinstalled = make_device(sim, clouds, "dev", fs=fs, seed=7, config=CONFIG)
    report = sim.run_process(reinstalled.sync())
    # Local files equal cloud content: after the round the device is
    # consistent and nothing was lost.
    assert fs.read_file("/kept") == data
    second = sim.run_process(reinstalled.sync())
    assert not second.changed_anything


def test_reinstall_with_divergent_local_file_keeps_both():
    """Reinstall with a *stale/divergent* local copy: the cloud version
    wins the canonical path, the local copy survives as a conflict."""
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    fs = VirtualFileSystem()
    original = make_device(sim, clouds, "dev", fs=fs, seed=8, config=CONFIG)
    cloud_version = payload(30)
    fs.write_file("/doc", cloud_version, mtime=sim.now)
    sim.run_process(original.sync())
    # Wipe the client, edit the file offline, reinstall.
    offline_edit = payload(31)
    fs.write_file("/doc", offline_edit, mtime=sim.now)
    reinstalled = make_device(sim, clouds, "dev", fs=fs, seed=9, config=CONFIG)
    sim.run_process(reinstalled.sync())
    assert fs.read_file("/doc") == cloud_version
    assert fs.read_file("/doc.conflict-dev") == offline_edit
    # The conflict copy syncs to other devices as a regular file.
    observer = make_device(sim, clouds, "observer", seed=10, config=CONFIG)
    sim.run_process(observer.sync())
    assert observer.fs.read_file("/doc.conflict-dev") == offline_edit


def test_reused_content_survives_garbage_collection():
    """Regression: re-referencing content whose segment was reaped must
    re-upload the blocks, not resurrect the stale placement.

    Content addressing means a peer that re-creates previously-deleted
    bytes produces the *same* segment id.  Pre-fix, the planner saw the
    leftover refcount-0 record (locations intact, blocks long gone) and
    dedup-skipped the upload — committing a file no device could ever
    fetch again.
    """
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    writer = make_device(sim, clouds, "writer", seed=40, config=CONFIG)
    reader = make_device(sim, clouds, "reader", seed=41, config=CONFIG)
    data = payload(40)
    writer.fs.write_file("/doc", data, mtime=sim.now)
    sim.run_process(writer.sync())
    sim.run_process(reader.sync())  # reader now holds /doc's records
    # Overwrite: the old content's segments hit refcount 0 on the
    # writer, whose end-of-round GC deletes their cloud blocks.
    writer.fs.write_file("/doc", payload(41), mtime=sim.now)
    sim.run_process(writer.sync())
    sim.run()  # let the background block deletions land
    # The reader adopts v2 (old records now unreferenced in its image
    # too), then re-creates the identical bytes under a new name.
    sim.run_process(reader.sync())
    reader.fs.write_file("/doc.bak", data, mtime=sim.now)
    sim.run_process(reader.sync())
    # A newcomer must be able to materialize both files from the clouds.
    newcomer = make_device(sim, clouds, "newcomer", seed=42, config=CONFIG)
    sim.run_process(newcomer.sync())
    assert newcomer.fs.read_file("/doc.bak") == data
    assert newcomer.fs.read_file("/doc") == payload(41)


def test_promoted_own_retention_rematerializes_on_disk():
    """Regression: a device's own retained edit, promoted back to
    current by another device's delete, must be re-fetched to disk.

    The materialize path used to skip any snapshot carrying this
    device's name ("our own commit; content already local") — but a
    promoted retention carries our name while the disk holds the
    content the conflict round reverted to, leaving folder bytes
    diverged from converged metadata.
    """
    sim = Simulator()
    clouds = [SimulatedCloud(sim, f"c{i}") for i in range(5)]
    dev_a = make_device(sim, clouds, "devA", seed=50, config=CONFIG)
    dev_b = make_device(sim, clouds, "devB", seed=51, config=CONFIG)
    base = payload(50)
    dev_a.fs.write_file("/f", base, mtime=sim.now)
    sim.run_process(dev_a.sync())
    sim.run_process(dev_b.sync())
    # Divergent edits; B commits first, A's edit is retained and A's
    # disk reverts to B's content (plus a /f.conflict-devA copy).
    content_b = payload(51)
    content_a = payload(52)
    dev_b.fs.write_file("/f", content_b, mtime=sim.now)
    dev_a.fs.write_file("/f", content_a, mtime=sim.now)
    sim.run_process(dev_b.sync())
    sim.run_process(dev_a.sync())
    assert dev_a.fs.read_file("/f") == content_b
    assert dev_a.fs.read_file("/f.conflict-devA") == content_a
    # B deletes /f without having seen A's retention: the merge
    # promotes the retained snapshot (device=devA) back to current.
    dev_b.fs.delete_file("/f")
    sim.run_process(dev_b.sync())
    entry = dev_b.image.files["/f"]
    assert entry.current.device == "devA"
    assert entry.current.size == len(content_a)
    # A must put the promoted content back on its own disk.
    sim.run_process(dev_a.sync())
    assert dev_a.fs.read_file("/f") == content_a
