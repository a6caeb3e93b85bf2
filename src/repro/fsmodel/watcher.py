"""Scan-based change detection for the local sync folder.

The paper's Windows client hooks file-system notifications; our
simulator equivalent diffs successive directory snapshots, which yields
the same abstraction downstream: a list of add / edit / delete records
feeding the ``ChangedFileList`` (paper §5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List

from .virtual_fs import FileStat

__all__ = ["ChangeKind", "Change", "diff_snapshots", "FolderWatcher"]


class ChangeKind(enum.Enum):
    ADD = "add"
    EDIT = "edit"
    DELETE = "delete"


@dataclass(frozen=True)
class Change:
    """One local filesystem change since the previous scan."""

    kind: ChangeKind
    path: str
    mtime: float = 0.0


def diff_snapshots(
    old: Dict[str, FileStat], new: Dict[str, FileStat]
) -> List[Change]:
    """Compare two scans; the same stat object, or else digests, decide
    'edited'."""
    changes: List[Change] = []
    for path in sorted(new):
        stat = new[path]
        previous = old.get(path)
        if previous is None:
            changes.append(Change(ChangeKind.ADD, path, stat.mtime))
        elif previous is not stat and previous.digest != stat.digest:
            changes.append(Change(ChangeKind.EDIT, path, stat.mtime))
    for path in sorted(old):
        if path not in new:
            changes.append(Change(ChangeKind.DELETE, path, old[path].mtime))
    return changes


class FolderWatcher:
    """Tracks the last-seen snapshot and reports deltas on poll."""

    def __init__(self, filesystem):
        self.filesystem = filesystem
        self._last: Dict[str, FileStat] = {}

    def prime(self) -> None:
        """Adopt the current state as the baseline (no changes reported)."""
        self._last = self.filesystem.scan()

    def poll(self) -> List[Change]:
        """Return changes since the last poll (or prime) and advance."""
        current = self.filesystem.scan()
        changes = diff_snapshots(self._last, current)
        self._last = current
        return changes

    def absorb(self, paths: Iterable[str]) -> List[Change]:
        """Advance past the changes to ``paths`` alone (a sync round's
        own writes) and return them; any other change, such as a user's
        edit made while the round ran, is left for the next poll."""
        paths = set(paths)
        if not paths:
            return []
        current = self.filesystem.scan()
        old = {p: self._last.pop(p) for p in paths if p in self._last}
        new = {p: current[p] for p in paths if p in current}
        self._last.update(new)
        return diff_snapshots(old, new)
