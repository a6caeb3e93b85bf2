"""Tests for the server-side object store."""

import posixpath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    ConflictError,
    NotFoundError,
    ObjectStore,
    QuotaExceededError,
)


def make():
    return ObjectStore("cloudA")


def test_put_get_roundtrip():
    store = make()
    store.put("/a/b/file.bin", b"hello", mtime=1.0)
    assert store.get("/a/b/file.bin") == b"hello"


def test_path_normalization():
    store = make()
    store.put("a/b.txt", b"x", mtime=0.0)
    assert store.get("/a/b.txt") == b"x"
    assert store.get("//a//b.txt") == b"x"


def test_get_missing_raises():
    with pytest.raises(NotFoundError):
        make().get("/nope")


def test_overwrite_updates_content_and_usage():
    store = make()
    store.put("/f", b"aaaa", mtime=0.0)
    store.put("/f", b"bb", mtime=1.0)
    assert store.get("/f") == b"bb"
    assert store.used_bytes == 2


def test_parents_auto_created():
    store = make()
    store.put("/x/y/z/file", b"1", mtime=0.0)
    assert store.is_folder("/x")
    assert store.is_folder("/x/y")
    assert store.is_folder("/x/y/z")


def test_make_folder_and_conflicts():
    store = make()
    store.make_folder("/docs")
    assert store.is_folder("/docs")
    store.make_folder("/docs")  # idempotent
    store.put("/file", b"x", mtime=0.0)
    with pytest.raises(ConflictError):
        store.make_folder("/file")
    with pytest.raises(ConflictError):
        store.put("/docs", b"x", mtime=0.0)


def test_a_file_is_never_also_a_folder():
    store = make()
    store.put("/a", b"x", mtime=0.0)
    for path in ("/a/b", "/a/b/c"):
        with pytest.raises(ConflictError):
            store.put(path, b"y", mtime=1.0)
        with pytest.raises(ConflictError):
            store.make_folder(path)
    assert not store.is_folder("/a")
    assert [(e.name, e.is_folder) for e in store.list_folder("/")] == [
        ("a", False)
    ]
    assert store.get("/a") == b"x"
    assert store.used_bytes == 1


def test_list_folder_contents():
    store = make()
    store.put("/d/a.txt", b"1", mtime=1.0)
    store.put("/d/b.txt", b"22", mtime=2.0)
    store.make_folder("/d/sub")
    store.put("/d/sub/deep.txt", b"3", mtime=3.0)
    entries = store.list_folder("/d")
    names = [(e.name, e.is_folder) for e in entries]
    assert ("sub", True) in names
    assert ("a.txt", False) in names
    assert ("b.txt", False) in names
    assert len(entries) == 3  # deep.txt is not a direct child
    by_name = {e.name: e for e in entries}
    assert by_name["b.txt"].size == 2
    assert by_name["b.txt"].mtime == 2.0


def test_list_missing_folder_raises():
    with pytest.raises(NotFoundError):
        make().list_folder("/missing")


def test_list_root():
    store = make()
    store.put("/top.txt", b"x", mtime=0.0)
    entries = store.list_folder("/")
    assert [e.name for e in entries] == ["top.txt"]


def test_delete_file_idempotent():
    store = make()
    store.put("/f", b"abc", mtime=0.0)
    store.delete("/f")
    assert not store.exists("/f")
    assert store.used_bytes == 0
    store.delete("/f")  # no error


def test_delete_folder_subtree():
    store = make()
    store.put("/d/one", b"1", mtime=0.0)
    store.put("/d/sub/two", b"22", mtime=0.0)
    store.put("/outside", b"333", mtime=0.0)
    store.delete("/d")
    assert not store.exists("/d")
    assert not store.exists("/d/one")
    assert not store.exists("/d/sub/two")
    assert store.get("/outside") == b"333"
    assert store.used_bytes == 3


def test_quota_enforced():
    store = ObjectStore("c", quota_bytes=10)
    store.put("/a", b"12345", mtime=0.0)
    with pytest.raises(QuotaExceededError):
        store.put("/b", b"123456", mtime=0.0)
    # Overwriting within quota is fine (delta accounting).
    store.put("/a", b"1234567890", mtime=1.0)
    assert store.used_bytes == 10


def test_stat():
    store = make()
    store.put("/s", b"abcd", mtime=7.0)
    entry = store.stat("/s")
    assert entry.size == 4
    assert entry.mtime == 7.0
    assert not entry.is_folder
    store.make_folder("/dir")
    assert store.stat("/dir").is_folder
    with pytest.raises(NotFoundError):
        store.stat("/none")


def listing_by_scan(store, path):
    """Every entry directly under ``path``, found by scanning the store."""
    folders = [
        f for f in sorted(store._folders)
        if f != path and posixpath.dirname(f) == path
    ]
    files = [f for f in sorted(store._files) if posixpath.dirname(f) == path]
    return [(f, True, 0) for f in folders] + [
        (f, False, store._files[f].size) for f in files
    ]


_paths = st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts)
)
_ops = st.one_of(
    st.tuples(st.just("put"), _paths, st.integers(0, 4)),
    st.tuples(st.just("make_folder"), _paths, st.just(0)),
    st.tuples(st.just("delete"), _paths | st.just("/"), st.just(0)),
    st.tuples(st.just("wipe"), st.just("/"), st.just(0)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ops, max_size=25))
def test_child_index_lists_what_a_scan_finds(ops):
    store = make()
    for name, path, size in ops:
        try:
            if name == "put":
                store.put(path, b"x" * size, mtime=float(size))
            elif name == "wipe":
                store.wipe()
            else:
                getattr(store, name)(path)
        except ConflictError:
            pass
        assert store.used_bytes == sum(o.size for o in store._files.values())
        for folder in store._folders:
            assert folder not in store._files
            listed = [(e.path, e.is_folder, e.size)
                      for e in store.list_folder(folder)]
            assert listed == listing_by_scan(store, folder)
