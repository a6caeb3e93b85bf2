"""A sync round pays only the round trips its result needs.

Per-round request counts on five clouds over quiet 5/10/20/40/80 Mbps
links.  A reader round makes one version poll per cloud, carries the
heartbeat a changing round left due in that same gather, and downloads
one delta (from the fastest replica it knows to be fresh) and the
blocks it applies.  After a round that brought news, the poll's gather
also carries that delta read, so such a reader round is poll ∥ delta,
then blocks.  A device that holds no base downloads base ∥ delta.  A
committer that holds the delta the clouds hold extends it without
downloading it or listing ``meta/``.
"""

import numpy as np
import pytest

from _sched_env import profile
from repro import obs
from repro.cloud.errors import RequestFailedError
from repro.core.config import UniDriveConfig
from repro.core.probing import DOWNLOAD, ThroughputEstimator
from repro.workloads import make_device, make_fleet

#: Fold thresholds out of reach: every commit after the first appends.
CONFIG = UniDriveConfig(
    theta=64 * 1024, delta_merge_ratio=1000.0, delta_merge_bytes=10 ** 9,
)
META = CONFIG.meta_dir
LINKS = [profile(mbps) for mbps in (5.0, 10.0, 20.0, 40.0, 80.0)]
N = len(LINKS)


def payload(seed, size=96 * 1024):
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def log_requests(device):
    """Wrap ``device``'s downloads, uploads and folder listings; the
    returned list collects ``(start, cloud, method, path)`` per
    request, method ``GET``, ``PUT`` or ``LIST``."""
    log = []
    for conn in device.connections:
        for method, name in (("GET", "download"), ("PUT", "upload"),
                             ("LIST", "list_folder")):
            def request(path, *args, _raw=getattr(conn, name),
                        _cloud=conn.cloud_id, _method=method, **kwargs):
                log.append((device.sim.now, _cloud, _method, path))
                return (yield from _raw(path, *args, **kwargs))
            setattr(conn, name, request)
    return log


class Recorder:
    """Runs rounds and returns the requests each one made."""

    def __init__(self, fleet):
        self.sim = fleet.sim
        self.logs = {device.device: log_requests(device)
                     for device in fleet.devices}

    def sync(self, device):
        log = self.logs[device.device]
        before = len(log)
        report = self.sim.run_process(device.sync())
        return report, log[before:]


def count(requests, method, name):
    """Requests of ``method`` on ``meta/<name>`` (``meta/`` itself for
    an empty name)."""
    path = f"{META}/{name}" if name else META
    return len([r for r in requests if r[2:] == (method, path)])


def block_gets(requests):
    return [r for r in requests
            if r[2] == "GET" and r[3].startswith(CONFIG.blocks_dir)]


def edit(device, sim, path, seed):
    device.fs.write_file(path, payload(seed), mtime=sim.now)


def delta_reads(requests):
    return [cloud for _t, cloud, method, path in requests
            if (method, path) == ("GET", f"{META}/delta")]


def news_fleet():
    """A writer that committed /a and a reader that bootstrapped from
    it, so the reader's next poll carries a delta read."""
    fleet = make_fleet(2, link=LINKS, config=CONFIG)
    writer, reader = fleet.devices
    edit(writer, fleet.sim, "/a", 1)
    fleet.sim.run_process(writer.sync())
    fleet.sim.run_process(reader.sync())
    assert reader._heartbeat_due
    return fleet


def test_a_first_sync_polls_once():
    """A bootstrap polls; the round does not poll again after it."""
    fleet = make_fleet(2, link=LINKS, config=CONFIG)
    writer, reader = fleet.devices
    rec = Recorder(fleet)
    edit(writer, fleet.sim, "/a", 1)
    rec.sync(writer)
    report, requests = rec.sync(reader)
    assert report.downloaded_files == ["/a"]
    assert count(requests, "GET", "version") == N


def test_a_reader_round_pays_a_heartbeat_only_when_one_is_due():
    fleet = make_fleet(2, link=LINKS, config=CONFIG)
    writer, reader = fleet.devices
    rec = Recorder(fleet)
    edit(writer, fleet.sim, "/a", 1)
    rec.sync(writer)
    rec.sync(reader)  # bootstraps: its heartbeat is now due
    heartbeat = f"device_{reader.device}"

    # Nothing new: N polls carry the due heartbeat in one gather, and
    # the delta read a poll after news carries (2N + 1: the bootstrap
    # brought news).
    report, requests = rec.sync(reader)
    assert not report.changed_anything
    assert count(requests, "GET", "version") == N
    assert count(requests, "PUT", heartbeat) == N
    assert len(requests) == 2 * N + 1
    assert len({start for start, *_ in requests}) == 1

    # A commit to apply, no heartbeat due: N polls, one delta, blocks.
    edit(writer, fleet.sim, "/b", 2)
    rec.sync(writer)
    report, requests = rec.sync(reader)
    assert report.downloaded_files == ["/b"]
    assert count(requests, "GET", "version") == N
    assert count(requests, "PUT", heartbeat) == 0
    assert count(requests, "GET", "delta") == 1
    blocks = block_gets(requests)
    assert blocks and len(requests) == N + 1 + len(blocks)

    # That round changed something: the next poll carries its heartbeat
    # and a delta read.
    _, requests = rec.sync(reader)
    assert count(requests, "PUT", heartbeat) == N
    assert len(requests) == 2 * N + 1


def test_a_commit_extends_the_delta_it_holds():
    """The committer holds the delta it published last round: no delta
    GET and no ``meta/`` LIST.  With nothing held (a crash emptied the
    slots) it reads a fresh replica's delta and lists for the base
    size."""
    fleet = make_fleet(1, link=LINKS, config=CONFIG)
    (writer,) = fleet.devices
    rec = Recorder(fleet)
    edit(writer, fleet.sim, "/a", 1)
    rec.sync(writer)
    edit(writer, fleet.sim, "/b", 2)
    report, requests = rec.sync(writer)
    assert report.committed_version == 2
    assert count(requests, "GET", "delta") == 0
    assert count(requests, "LIST", "") == 0
    assert count(requests, "PUT", "delta") == N
    assert count(requests, "PUT", "base") == 0

    writer._held.clear()
    edit(writer, fleet.sim, "/c", 3)
    report, requests = rec.sync(writer)
    assert report.committed_version == 3
    assert count(requests, "GET", "delta") == 1
    assert count(requests, "LIST", "") == 1
    assert count(requests, "PUT", "delta") == N
    late = make_device(fleet.sim, fleet.clouds, "late", 9, LINKS, CONFIG)
    fleet.sim.run_process(late.sync())
    assert late.image.version.counter == 3
    assert {p: late.fs.read_file(p) for p in late.fs.paths()} == {
        p: payload(seed) for p, seed in (("/a", 1), ("/b", 2), ("/c", 3))
    }


def test_the_metadata_read_goes_to_the_fastest_fresh_replica():
    fleet = make_fleet(2, link=LINKS, config=CONFIG)
    writer, reader = fleet.devices
    rec = Recorder(fleet)
    edit(writer, fleet.sim, "/a", 1)
    rec.sync(writer)
    rec.sync(reader)

    def probe(speeds):
        """Every cloud probed once at ``speeds`` (bytes/s); returns the
        clouds fastest-first."""
        reader.estimator = ThroughputEstimator()
        for conn, speed in zip(reader.connections, speeds):
            reader.estimator.record(conn.cloud_id, DOWNLOAD, speed, 1.0)
        return reader.estimator.rank(
            [conn.cloud_id for conn in reader.connections], DOWNLOAD
        )

    edit(writer, fleet.sim, "/b", 2)
    rec.sync(writer)
    ranked = probe([1e5, 2e5, 8e5, 4e5, 3e5])
    assert ranked == ["cloud2", "cloud3", "cloud4", "cloud1", "cloud0"]
    _, requests = rec.sync(reader)
    assert delta_reads(requests) == ["cloud2"]
    assert reader.fs.read_file("/b") == payload(2)

    # The fastest replica's version file says it missed the next
    # commit: it is tried last, and the next fastest serves.  (The poll
    # after the news of /b prefetched cloud3's delta before it showed
    # cloud3 stale; those bytes are dropped.)
    old = fleet.clouds[3].store.get(f"{META}/version")
    edit(writer, fleet.sim, "/c", 3)
    rec.sync(writer)
    fleet.clouds[3].store.put(f"{META}/version", old, mtime=fleet.sim.now)
    probe([1e5, 2e5, 3e5, 8e5, 4e5])
    _, requests = rec.sync(reader)
    assert reader._poll_counters["cloud3"] == 2
    assert delta_reads(requests) == ["cloud3", "cloud4"]
    assert reader.image.version.counter == 3


def test_a_path_whose_blocks_are_gone_is_reported_unfetched():
    """Every block of one file's segment is deleted from the stores: a
    fresh reader's round and its next one both name that path, and
    ``sync()`` still returns normally."""
    fleet = make_fleet(2, config=CONFIG)
    writer, reader = fleet.devices
    edit(writer, fleet.sim, "/gone", 1)
    edit(writer, fleet.sim, "/kept", 2)
    fleet.sim.run_process(writer.sync())
    (segment,) = writer.image.files["/gone"].current.segment_ids
    for cloud in fleet.clouds:
        for entry in cloud.store.list_folder(CONFIG.blocks_dir):
            if entry.name.startswith(segment):
                cloud.store.delete(entry.path)
    for _round in range(2):
        report = fleet.sim.run_process(reader.sync())
        assert report.unfetched == ["/gone"]
        assert reader.fs.read_file("/kept") == payload(2)
        assert not reader.fs.exists("/gone")
    assert fleet.sim.run_process(writer.sync()).unfetched == []


def test_a_reader_round_after_news_is_poll_and_delta_then_blocks():
    fleet = news_fleet()
    writer, reader = fleet.devices
    rec = Recorder(fleet)
    edit(writer, fleet.sim, "/b", 2)
    rec.sync(writer)
    first = reader._replicas()[0].cloud_id
    report, requests = rec.sync(reader)
    assert report.downloaded_files == ["/b"]
    blocks = block_gets(requests)
    meta = [r for r in requests if r not in blocks]
    assert len(meta) == 2 * N + 1
    assert len({start for start, *_ in meta}) == 1
    assert delta_reads(requests) == [first]
    # The blocks wait for the poll's gather, and nothing else does.
    assert len({start for start, *_ in blocks}) == 1
    assert blocks[0][0] > meta[0][0]


def test_an_idle_streak_pays_one_delta_read_then_polls_only():
    fleet = news_fleet()
    _writer, reader = fleet.devices
    rec = Recorder(fleet)
    heartbeat = f"device_{reader.device}"
    report, requests = rec.sync(reader)
    assert not report.changed_anything
    assert count(requests, "GET", "version") == N
    assert count(requests, "PUT", heartbeat) == N
    assert count(requests, "GET", "delta") == 1
    assert len(requests) == 2 * N + 1
    for _round in range(2):
        report, requests = rec.sync(reader)
        assert not report.changed_anything
        assert count(requests, "GET", "version") == N
        assert len(requests) == N


def test_a_stale_prefetched_replica_is_dropped_for_a_fresh_one():
    """The replica the poll prefetches from missed the commit (its
    version file and delta are the old ones): its bytes are dropped
    unchecked, and the next replica in order serves the news."""
    fleet = news_fleet()
    writer, reader = fleet.devices
    rec = Recorder(fleet)
    first, second = (conn.cloud_id for conn in reader._replicas()[:2])
    store = fleet.clouds[int(first[-1])].store
    old = {name: store.get(f"{META}/{name}") for name in ("version", "delta")}
    edit(writer, fleet.sim, "/b", 2)
    rec.sync(writer)
    for name, blob in old.items():
        store.put(f"{META}/{name}", blob, mtime=fleet.sim.now)
    with obs.isolated(sim=fleet.sim) as (_tracer, metrics):
        report, requests = rec.sync(reader)
    assert reader._poll_counters[first] == 1
    assert delta_reads(requests) == [first, second]
    assert report.downloaded_files == ["/b"]
    assert reader.image.version.counter == 2
    assert metrics.counter_value("metadata_skips", cloud=first,
                                 reason="stale") == 0


@pytest.mark.parametrize("how, reason, reads", [
    ("failed", "RequestFailedError", [0, 0]),
    ("missing", "NotFoundError", [0, 0, 1]),
    ("undecodable", "undecodable", [0, 1]),
])
def test_a_bad_prefetch_falls_back_to_the_retried_reads(how, reason, reads):
    """A prefetch that failed is reported and its replica read again,
    under the retry policy; a missing delta is reported, and the
    replica read again is a lone base, stale, so the next one serves;
    undecodable bytes are skipped like a downloaded replica's."""
    fleet = news_fleet()
    writer, reader = fleet.devices
    order = [conn.cloud_id for conn in reader._replicas()]
    top = reader._connection(order[0])
    armed = []
    raw = top.download

    def download(path, *args, **kwargs):
        if armed and path == f"{META}/delta":
            armed.clear()
            raise RequestFailedError(f"{top.cloud_id}: injected")
        return (yield from raw(path, *args, **kwargs))

    top.download = download
    rec = Recorder(fleet)
    edit(writer, fleet.sim, "/b", 2)
    rec.sync(writer)
    store = fleet.clouds[int(order[0][-1])].store
    if how == "failed":
        armed.append(True)
    elif how == "missing":
        store.delete(f"{META}/delta")
    else:
        store.put(f"{META}/delta", b"\x00" * 64, mtime=fleet.sim.now)
    with obs.isolated(sim=fleet.sim) as (_tracer, metrics):
        report, requests = rec.sync(reader)
    assert delta_reads(requests) == [order[i] for i in reads]
    assert metrics.counter_value("metadata_skips", cloud=order[0],
                                 reason=reason) == 1
    assert report.downloaded_files == ["/b"]
    assert reader.image.version.counter == 2


def test_a_breaker_open_replica_is_not_prefetched_from():
    fleet = news_fleet()
    writer, reader = fleet.devices
    rec = Recorder(fleet)
    first, second = (conn.cloud_id for conn in reader._replicas()[:2])
    reader.degrade.on_failure(first, fleet.sim.now, fatal=True)
    assert not reader.degrade.admits(first, fleet.sim.now)
    edit(writer, fleet.sim, "/b", 2)
    rec.sync(writer)
    report, requests = rec.sync(reader)
    assert delta_reads(requests) == [second]
    assert [r[0] for r in requests if r[2:] == ("GET", f"{META}/delta")] \
        == [requests[0][0]]
    assert report.downloaded_files == ["/b"]


def test_a_device_holding_no_base_reads_base_and_delta_at_once():
    """A new device bootstraps from a folder whose second commit
    appended a delta: both files come from one replica in one gather."""
    fleet = make_fleet(2, link=LINKS, config=CONFIG)
    writer, reader = fleet.devices
    rec = Recorder(fleet)
    edit(writer, fleet.sim, "/a", 1)
    rec.sync(writer)
    edit(writer, fleet.sim, "/b", 2)
    rec.sync(writer)
    report, requests = rec.sync(reader)
    assert sorted(report.downloaded_files) == ["/a", "/b"]
    reads = [r for r in requests if r[2:] in
             (("GET", f"{META}/base"), ("GET", f"{META}/delta"))]
    assert len(reads) == 2
    assert len({(start, cloud) for start, cloud, *_ in reads}) == 1


def test_applying_a_delete_leaves_nothing_to_commit():
    """The reader's round that only deletes a file absorbs that delete:
    its next round commits nothing and sends no lock request."""
    fleet = make_fleet(2, link=LINKS, config=CONFIG)
    writer, reader = fleet.devices
    rec = Recorder(fleet)
    edit(writer, fleet.sim, "/a", 1)
    edit(writer, fleet.sim, "/b", 2)
    rec.sync(writer)
    rec.sync(reader)
    writer.fs.delete_file("/a")
    rec.sync(writer)
    report, _ = rec.sync(reader)
    assert report.deleted_files == ["/a"]
    assert report.downloaded_files == []
    report, requests = rec.sync(reader)
    assert report.committed_version is None
    assert [r for r in requests if r[3].startswith(CONFIG.lock_dir)] == []
    assert reader.image.version.counter == writer.image.version.counter
