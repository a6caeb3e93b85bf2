"""Tests for the SyncFolderImage metadata model."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import deltasync
from repro.core.deltasync import DeltaLog
from repro.core.merge import (
    LAST_WRITER_WINS,
    RETAIN_BOTH,
    MergePolicy,
    merge_images,
    recompute_refcounts,
)
from repro.core.metadata import (
    FileSnapshot,
    FrozenRecordError,
    MetadataError,
    SegmentRecord,
    SyncFolderImage,
    VersionStamp,
)
from repro.core.serialization import deserialize_image, serialize_image


def snap(path, segs, size=10, ts=1.0, device="d1"):
    return FileSnapshot(path=path, timestamp=ts, size=size,
                        segment_ids=list(segs), device=device)


def seg(segment_id, n=10, k=3, size=100):
    return SegmentRecord(segment_id=segment_id, size=size, n=n, k=k)


def test_upsert_and_read_back():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.upsert_file(snap("/a.txt", ["s1"]))
    assert image.files["/a.txt"].current.segment_ids == ["s1"]
    assert image.segments["s1"].refcount == 1


def test_upsert_replaces_and_refcounts():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.add_segment(seg("s2"))
    image.upsert_file(snap("/a", ["s1"]))
    image.upsert_file(snap("/a", ["s2"]))
    assert image.segments["s1"].refcount == 0
    assert image.segments["s2"].refcount == 1


def test_shared_segment_refcount():
    image = SyncFolderImage("d1")
    image.add_segment(seg("shared"))
    image.upsert_file(snap("/a", ["shared"]))
    image.upsert_file(snap("/b", ["shared"]))
    assert image.segments["shared"].refcount == 2
    image.delete_file("/a")
    assert image.segments["shared"].refcount == 1


def test_delete_file_unrefs_conflicts_too():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.add_segment(seg("s2"))
    image.upsert_file(snap("/f", ["s1"]))
    image.add_conflict("/f", snap("/f", ["s2"], device="d2"))
    image.delete_file("/f")
    assert image.segments["s1"].refcount == 0
    assert image.segments["s2"].refcount == 0


def test_garbage_segments():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.upsert_file(snap("/f", ["s1"]))
    assert image.garbage_segments() == []
    image.delete_file("/f")
    garbage = image.garbage_segments()
    assert [g.segment_id for g in garbage] == ["s1"]
    image.drop_segment("s1")
    assert image.segments == {}


def test_set_block_location_callback():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1", n=5))
    image.set_block_location("s1", 2, "dropbox")
    assert image.segments["s1"].locations == {2: "dropbox"}
    with pytest.raises(KeyError):
        image.set_block_location("unknown", 0, "c")
    with pytest.raises(IndexError):
        image.set_block_location("s1", 9, "c")


def test_segment_record_helpers():
    record = seg("s1", n=6)
    record.locations = {0: "a", 1: "b", 2: "a", 5: "c"}
    assert record.clouds_holding() == ["a", "b", "c"]
    assert record.blocks_on("a") == [0, 2]


def test_conflict_resolution_keep_current():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.add_segment(seg("s2"))
    image.upsert_file(snap("/f", ["s1"]))
    image.add_conflict("/f", snap("/f", ["s2"], device="d2"))
    image.resolve_conflict("/f")
    assert image.files["/f"].conflicts == []
    assert image.segments["s2"].refcount == 0
    assert image.segments["s1"].refcount == 1


def test_conflict_resolution_promote():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.add_segment(seg("s2"))
    image.upsert_file(snap("/f", ["s1"]))
    image.add_conflict("/f", snap("/f", ["s2"], device="d2"))
    image.resolve_conflict("/f", keep_conflict_index=0)
    assert image.files["/f"].current.segment_ids == ["s2"]
    assert image.segments["s1"].refcount == 0
    assert image.segments["s2"].refcount == 1


def test_version_stamp_semantics():
    stamp = VersionStamp(2, "d2")
    assert VersionStamp.from_dict(stamp.to_dict()) == stamp
    # The counter is a non-negative int and the device a str, or the
    # stamp is not read at all.
    for counter, device in (("2", "d2"), (2.0, "d2"), (True, "d2"),
                            (-1, "d2"), (None, "d2"), (2, 7), (2, None)):
        with pytest.raises(TypeError):
            VersionStamp.from_dict({"counter": counter, "device": device})


def test_serialization_roundtrip_dict():
    image = SyncFolderImage("d1")
    image.version = VersionStamp(7, "d1")
    image.add_segment(seg("s1", n=10, k=3))
    image.set_block_location("s1", 0, "dropbox")
    image.upsert_file(snap("/x", ["s1"]))
    image.add_conflict("/x", snap("/x", ["s1"], device="d2"))
    clone = SyncFolderImage.from_dict(image.to_dict())
    assert clone.to_dict() == image.to_dict()
    assert clone.version.counter == 7
    assert clone.segments["s1"].locations == {0: "dropbox"}


def test_copy_is_deep():
    image = SyncFolderImage("d1")
    image.add_segment(seg("s1"))
    image.upsert_file(snap("/f", ["s1"]))
    clone = image.copy()
    clone.set_block_location("s1", 1, "x")
    assert image.segments["s1"].locations == {}


def test_decoded_image_is_in_index_order():
    # The wire's JSON sorts keys as text ("10" before "2"); copies share
    # the decoded records, so decoding must restore index order.
    image = SyncFolderImage("d1")
    record = seg("s1", n=12)
    for index in (11, 2, 10, 0):
        record.locations[index] = "x"
        record.block_hashes[index] = f"h{index}"
    image.add_segment(record)
    image.upsert_file(snap("/f", ["s1"]))
    key = b"8bytekey"
    decoded = deserialize_image(serialize_image(image, key), key)
    assert list(decoded.segments["s1"].locations) == [0, 2, 10, 11]
    assert order(decoded.copy()) == order(
        SyncFolderImage.from_dict(image.to_dict())
    )


MUTATORS = {
    "set_block_location": lambda i: i.set_block_location("s1", 1, "x"),
    "add_segment": lambda i: i.add_segment(
        SegmentRecord("s2", 100, 6, 3, {4: "y"}, debt=[5])),
    "add_conflict": lambda i: i.add_conflict(
        "/g", snap("/g", ["s1"], device="d4")),
    "resolve_keep": lambda i: i.resolve_conflict("/f", keep_conflict_index=0),
    "resolve_drop": lambda i: i.resolve_conflict("/f"),
    "write_segment": lambda i: i.write_segment("s2", refcount=7),
    "recompute_refcounts": recompute_refcounts,
    "upsert_file": lambda i: i.upsert_file(snap("/g", ["s1", "s2"])),
    "delete_file": lambda i: i.delete_file("/f"),
    "drop_segment": lambda i: i.drop_segment("s1"),
    "apply_delta": lambda i: DeltaLog([
        deltasync.op_upsert_file(snap("/f", ["s2"])),
        deltasync.op_add_segment(SegmentRecord("s1", 100, 6, 3, {3: "z"})),
    ]).apply_to(i),
}


@pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS)
def test_no_mutator_writes_a_shared_record(mutate):
    image = SyncFolderImage("d1")
    record = seg("s1", n=6)
    record.debt = [1, 2]
    image.add_segment(record)
    image.add_segment(seg("s2", n=6))
    image.upsert_file(snap("/f", ["s1"]))
    image.add_conflict("/f", snap("/f", ["s2"], device="d2"))
    image.add_conflict("/f", snap("/f", ["s1"], device="d3"))
    image.upsert_file(snap("/g", ["s2"]))
    image.write_segment("s1", refcount=9)  # for recompute to correct
    writer = image.copy()
    other = writer.copy()  # shares every record with ``writer``
    before = other.to_dict()
    twin = SyncFolderImage.from_dict(before)
    mutate(writer)
    mutate(twin)
    assert other.to_dict() == before
    assert writer.to_dict() == twin.to_dict()


@st.composite
def images(draw):
    """Random images: shuffled insertion order, conflicts, debt,
    block hashes, segments at refcount 0, counts files disagree with."""
    image = SyncFolderImage(draw(st.sampled_from(["", "d1", "d2"])))
    image.version = VersionStamp(draw(st.integers(0, 99)), "d3")
    sids = draw(st.lists(st.text("abcdef", min_size=1, max_size=4),
                         unique=True, max_size=8))
    for sid in sids:
        record = seg(sid, n=6, k=2)
        for index in draw(st.permutations(range(6)))[:draw(st.integers(0, 6))]:
            record.locations[index] = draw(st.sampled_from("xyz"))
        for index in draw(st.lists(st.integers(0, 5), max_size=4)):
            record.block_hashes[index] = f"h{index}"
        record.debt = draw(st.lists(st.integers(0, 5), max_size=3))
        record.refcount = draw(st.integers(-1, 2))
        image.add_segment(record)
    for path in draw(st.lists(st.text("pqr/", min_size=1, max_size=5),
                              unique=True, max_size=8)):
        picked = draw(st.lists(st.sampled_from(sids), max_size=3)) if sids else []
        image.upsert_file(snap(path, picked, ts=draw(st.floats(0, 1e9))))
        for _ in range(draw(st.integers(0, 2))):
            image.add_conflict(path, snap(path, picked[::-1], device="d2"))
    return image


def order(image):
    """Every iteration order a caller can observe."""
    return (
        list(image.files),
        [(len(e.conflicts), e.current.segment_ids) for e in image.files.values()],
        list(image.segments),
        [(list(s.locations), list(s.block_hashes), s.debt)
         for s in image.segments.values()],
    )


@settings(max_examples=80, deadline=None)
@given(images())
def test_copy_equals_dict_roundtrip(image):
    clone = image.copy()
    reference = SyncFolderImage.from_dict(image.to_dict())
    assert clone.version == reference.version
    assert clone.files == reference.files
    assert clone.segments == reference.segments
    assert order(clone) == order(reference)


# -- the sharing contract -------------------------------------------------
#
# Copies share every record the source has not written, so a write
# through any mutation path must clone a shared record rather than
# write it in place.  Each image in the pool below has a twin that never
# shares anything: copies of twins are ``from_dict(to_dict())``, a merge
# of twins runs on private deep copies, and every mutation is applied to
# image and twin alike.  A write that leaked through a shared record
# would make some image drift from its twin.

CLOUDS = st.sampled_from("xyz")


def mutations(paths, sids):
    """Mutations aimed mostly at keys the pool holds."""
    paths = st.sampled_from(sorted(paths | {"/new"}))
    sids = st.sampled_from(sorted(sids | {"new"}))
    segment_lists = st.lists(sids, max_size=3)
    records = st.tuples(
        sids,
        st.dictionaries(st.integers(0, 5), CLOUDS, max_size=4),
        st.dictionaries(st.integers(0, 5), st.just("h"), max_size=3),
        st.lists(st.integers(0, 5), max_size=2),
    )
    delta_ops = st.one_of(
        st.tuples(st.just("upsert_file"), paths, segment_lists),
        st.tuples(st.just("delete_file"), paths),
        st.tuples(st.just("add_segment"), records),
        st.tuples(st.just("resolve_conflict"), paths, st.none() | st.just(0)),
        st.tuples(st.just("set_version"), st.integers(0, 99)),
    )
    return st.one_of(
        st.tuples(st.just("upsert_file"), paths, segment_lists),
        st.tuples(st.just("delete_file"), paths),
        st.tuples(st.just("add_conflict"), paths, segment_lists),
        st.tuples(st.just("resolve_conflict"), paths,
                  st.none() | st.integers(-1, 2)),
        st.tuples(st.just("add_segment"), records),
        st.tuples(st.just("set_block_location"), sids, st.integers(0, 6),
                  CLOUDS),
        st.tuples(st.just("drop_segment"), sids),
        st.tuples(st.just("write_segment"), sids, st.integers(-1, 3),
                  st.dictionaries(st.integers(0, 5), CLOUDS, max_size=3),
                  st.lists(st.integers(0, 5), max_size=2)),
        st.tuples(st.just("recompute_refcounts")),
        st.tuples(st.just("apply_delta"), st.lists(delta_ops, max_size=4)),
    )


def build(spec):
    """A fresh record from its spec: no two images get one object."""
    sid, locations, hashes, debt = spec
    return SegmentRecord(sid, 100, 6, 2, dict(locations), 0, dict(hashes),
                         list(debt))


def delta_op(name, *args):
    """The delta record a delta-op spec stands for."""
    if name == "upsert_file":
        return deltasync.op_upsert_file(snap(*args, device="d9"))
    if name == "add_segment":
        return deltasync.op_add_segment(build(args[0]))
    if name == "set_version":
        return deltasync.op_set_version(args[0], "d9")
    return getattr(deltasync, f"op_{name}")(*args)


def mutate(image, mutation):
    """Apply one mutation; returns the exception type it raised, if any."""
    name, *args = mutation
    try:
        if name in ("upsert_file", "add_conflict"):
            path, sids = args
            if name == "upsert_file":
                image.upsert_file(snap(path, sids))
            else:
                image.add_conflict(path, snap(path, sids, device="d2"))
        elif name == "add_segment":
            image.add_segment(build(args[0]))
        elif name == "write_segment":
            sid, refcount, locations, debt = args
            image.write_segment(sid, refcount=refcount,
                                locations=dict(locations), debt=list(debt))
        elif name == "recompute_refcounts":
            recompute_refcounts(image)
        elif name == "apply_delta":
            DeltaLog([delta_op(*op) for op in args[0]]).apply_to(image)
        else:
            getattr(image, name)(*args)
    except (KeyError, IndexError, MetadataError) as exc:
        return type(exc)
    return None


def reachable(image):
    return list(image.files.values()) + list(image.segments.values())


class ImageSharing(RuleBasedStateMachine):
    """A pool of images, each beside a twin that shares nothing."""

    def __init__(self):
        super().__init__()
        self.pool = []  # (image, twin)

    @initialize(image=images())
    def start(self, image):
        """An image, its copy and the copy's copy (which share records)."""
        self.pool.append((image, copy.deepcopy(image)))
        for _ in range(2):
            image, twin = self.pool[-1]
            self.pool.append(
                (image.copy(), SyncFolderImage.from_dict(twin.to_dict()))
            )

    def add(self, data, pair):
        """Grow the pool to eight images, then replace one at random."""
        if len(self.pool) < 8:
            self.pool.append(pair)
        else:
            self.pool[data.draw(st.integers(0, len(self.pool) - 1))] = pair

    @rule(data=st.data())
    def copy_image(self, data):
        image, twin = data.draw(st.sampled_from(self.pool))
        self.add(data, (image.copy(),
                        SyncFolderImage.from_dict(twin.to_dict())))

    @rule(data=st.data())
    def mutate_image(self, data):
        paths, sids = set(), set()
        for image, _ in self.pool:
            paths.update(image.files)
            sids.update(image.segments)
        image, twin = data.draw(st.sampled_from(self.pool))
        mutation = data.draw(mutations(paths, sids))
        assert mutate(image, mutation) == mutate(twin, mutation)

    @rule(data=st.data(), policy=st.sampled_from(
        [RETAIN_BOTH, LAST_WRITER_WINS]))
    def merge(self, data, policy):
        picked = [data.draw(st.sampled_from(self.pool)) for _ in range(3)]
        policy = MergePolicy(policy)
        merged = merge_images(*(image for image, _ in picked), policy)
        twins = copy.deepcopy([twin for _, twin in picked])
        self.add(data, (merged.image, merge_images(*twins, policy).image))

    @invariant()
    def matches_its_twin(self):
        for image, twin in self.pool:
            assert image.to_dict() == twin.to_dict()
            assert order(image) == order(twin)

    @invariant()
    def shared_records_are_frozen_and_refuse_writes(self):
        holders = {}
        for image, _ in self.pool:
            # What an image owns is exactly what it may write in place.
            assert image._own_files == {
                path for path, e in image.files.items() if not e._frozen}
            assert image._own_segments == {
                sid for sid, r in image.segments.items() if not r._frozen}
            for record in reachable(image):
                holders.setdefault(id(record), set()).add(id(image))
                if record._frozen:
                    with pytest.raises(FrozenRecordError):
                        record.write(conflicts=[], debt=[9])
        for image, _ in self.pool:
            for record in reachable(image):
                if len(holders[id(record)]) > 1:
                    assert record._frozen


ImageSharing.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None
)
test_image_sharing = ImageSharing.TestCase
