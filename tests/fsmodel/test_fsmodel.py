"""Tests for the virtual filesystem and the folder watcher."""

import pytest

from repro.fsmodel import (
    ChangeKind,
    FolderWatcher,
    LocalDirFileSystem,
    VirtualFileSystem,
    diff_snapshots,
)


def test_virtual_fs_roundtrip():
    fs = VirtualFileSystem()
    fs.write_file("/docs/a.txt", b"hello", mtime=1.0)
    assert fs.read_file("/docs/a.txt") == b"hello"
    assert fs.exists("/docs/a.txt")
    assert fs.paths() == ["/docs/a.txt"]


def test_virtual_fs_normalizes_paths():
    fs = VirtualFileSystem()
    fs.write_file("docs//a.txt", b"x", mtime=0.0)
    assert fs.read_file("/docs/a.txt") == b"x"


def test_virtual_fs_missing_file():
    with pytest.raises(FileNotFoundError):
        VirtualFileSystem().read_file("/none")


def test_virtual_fs_delete_idempotent():
    fs = VirtualFileSystem()
    fs.write_file("/f", b"x", mtime=0.0)
    fs.delete_file("/f")
    fs.delete_file("/f")
    assert not fs.exists("/f")


def test_scan_contains_stats():
    fs = VirtualFileSystem()
    fs.write_file("/f", b"abcd", mtime=9.0)
    snapshot = fs.scan()
    assert snapshot["/f"].size == 4
    assert snapshot["/f"].mtime == 9.0


def test_diff_detects_add_edit_delete():
    fs = VirtualFileSystem()
    fs.write_file("/keep", b"same", mtime=0.0)
    fs.write_file("/edit", b"v1", mtime=0.0)
    fs.write_file("/gone", b"bye", mtime=0.0)
    old = fs.scan()
    fs.write_file("/edit", b"v2", mtime=1.0)
    fs.delete_file("/gone")
    fs.write_file("/new", b"hi", mtime=1.0)
    changes = diff_snapshots(old, fs.scan())
    kinds = {c.path: c.kind for c in changes}
    assert kinds == {
        "/edit": ChangeKind.EDIT,
        "/gone": ChangeKind.DELETE,
        "/new": ChangeKind.ADD,
    }


def test_touch_without_content_change_not_reported():
    fs = VirtualFileSystem()
    fs.write_file("/f", b"same", mtime=0.0)
    old = fs.scan()
    fs.write_file("/f", b"same", mtime=99.0)  # mtime only
    assert diff_snapshots(old, fs.scan()) == []


def test_watcher_poll_advances_baseline():
    fs = VirtualFileSystem()
    watcher = FolderWatcher(fs)
    watcher.prime()
    fs.write_file("/a", b"1", mtime=0.0)
    first = watcher.poll()
    assert [c.kind for c in first] == [ChangeKind.ADD]
    assert watcher.poll() == []


def test_watcher_absorb_takes_only_the_named_paths():
    """A sync round's own writes are absorbed; a user's edit made
    meanwhile is still reported by the next poll."""
    fs = VirtualFileSystem()
    fs.write_file("/old", b"0", mtime=0.0)
    fs.write_file("/same", b"s", mtime=0.0)
    watcher = FolderWatcher(fs)
    watcher.prime()
    fs.write_file("/mine", b"1", mtime=1.0)
    fs.delete_file("/old")
    fs.write_file("/same", b"s", mtime=1.0)
    fs.write_file("/user", b"2", mtime=1.0)
    absorbed = watcher.absorb(["/mine", "/old", "/same"])
    assert {c.path: c.kind for c in absorbed} == {
        "/mine": ChangeKind.ADD, "/old": ChangeKind.DELETE,
    }
    assert [(c.kind, c.path) for c in watcher.poll()] == [
        (ChangeKind.ADD, "/user"),
    ]


def test_watcher_prime_swallows_existing_files():
    fs = VirtualFileSystem()
    fs.write_file("/pre", b"x", mtime=0.0)
    watcher = FolderWatcher(fs)
    watcher.prime()
    assert watcher.poll() == []


def test_local_dir_fs(tmp_path):
    fs = LocalDirFileSystem(str(tmp_path))
    fs.write_file("/sub/f.bin", b"data")
    assert fs.read_file("/sub/f.bin") == b"data"
    snapshot = fs.scan()
    assert "/sub/f.bin" in snapshot
    assert snapshot["/sub/f.bin"].size == 4
    fs.delete_file("/sub/f.bin")
    assert not fs.exists("/sub/f.bin")
    with pytest.raises(FileNotFoundError):
        fs.read_file("/sub/f.bin")


def test_local_dir_watcher(tmp_path):
    fs = LocalDirFileSystem(str(tmp_path))
    watcher = FolderWatcher(fs)
    watcher.prime()
    fs.write_file("/x", b"1")
    changes = watcher.poll()
    assert [(c.kind, c.path) for c in changes] == [(ChangeKind.ADD, "/x")]
