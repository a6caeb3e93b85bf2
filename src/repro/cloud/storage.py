"""Server-side object store backing a simulated cloud.

Provides the consistency model the UniDrive locking protocol assumes
(paper §5.2): **read-after-write** — once an upload completes, every
subsequent list/download observes it.  A single authoritative in-memory
map gives this trivially; mtimes are assigned from the server's (i.e.
the simulator's) clock, which is what the lock-breaking mechanism keys
off instead of client clocks.
"""

from __future__ import annotations

import posixpath
from typing import Dict, List, Optional, Set

from .api import Entry
from .errors import ConflictError, NotFoundError, QuotaExceededError

__all__ = ["ObjectStore"]


def normalize(path: str) -> str:
    """Canonicalize a cloud path: absolute, no trailing slash, '/' root."""
    path = posixpath.normpath("/" + path.strip("/"))
    return path


class _Object:
    __slots__ = ("content", "size", "mtime")

    def __init__(self, content: Optional[bytes], size: int, mtime: float):
        self.content = content
        self.size = size
        self.mtime = mtime


class ObjectStore:
    """Hierarchical object store with quota accounting.

    ``retain_content=False`` keeps only object sizes (returning zero
    bytes on read): large simulated campaigns (the 272-user trial, the
    month-long measurement study) stay memory-bounded while all timing,
    quota and consistency behaviour is unchanged.  Integrity-sensitive
    tests and experiments keep the default.
    """

    def __init__(self, cloud_id: str, quota_bytes: Optional[int] = None,
                 retain_content: bool = True):
        self.cloud_id = cloud_id
        self.quota_bytes = quota_bytes
        self.retain_content = retain_content
        self._files: Dict[str, _Object] = {}
        #: folder -> the paths of its children (files and folders)
        self._folders: Dict[str, Set[str]] = {"/": set()}
        self.used_bytes = 0

    # -- queries -----------------------------------------------------------

    def exists(self, path: str) -> bool:
        path = normalize(path)
        return path in self._files or path in self._folders

    def is_folder(self, path: str) -> bool:
        return normalize(path) in self._folders

    def get(self, path: str) -> bytes:
        path = normalize(path)
        record = self._files.get(path)
        if record is None:
            raise NotFoundError(self.cloud_id, f"no such file: {path}")
        if record.content is None:
            return b"\x00" * record.size
        return record.content

    def stat(self, path: str) -> Entry:
        path = normalize(path)
        record = self._files.get(path)
        if record is not None:
            return Entry(posixpath.basename(path), path,
                         record.size, record.mtime)
        if path in self._folders:
            return Entry(posixpath.basename(path) or "/", path, 0, 0.0, True)
        raise NotFoundError(self.cloud_id, f"no such path: {path}")

    def list_folder(self, path: str) -> List[Entry]:
        path = normalize(path)
        children = self._folders.get(path)
        if children is None:
            raise NotFoundError(self.cloud_id, f"no such folder: {path}")
        folders, files = [], []
        for child in sorted(children):
            record = self._files.get(child)
            name = posixpath.basename(child)
            if record is None:
                folders.append(Entry(name, child, 0, 0.0, True))
            else:
                files.append(Entry(name, child, record.size, record.mtime))
        return folders + files

    # -- mutations ----------------------------------------------------------

    def put(self, path: str, content: bytes, mtime: float) -> None:
        """Store a file, auto-creating parent folders (as real CCSs do)."""
        path = normalize(path)
        if path in self._folders:
            raise ConflictError(self.cloud_id, f"path is a folder: {path}")
        old = self._files.get(path)
        delta = len(content) - (old.size if old else 0)
        if self.quota_bytes is not None and self.used_bytes + delta > self.quota_bytes:
            raise QuotaExceededError(
                self.cloud_id,
                f"quota {self.quota_bytes} B exceeded by {path}",
            )
        parent = posixpath.dirname(path)
        children = self._folders.get(parent)
        if children is None:
            self._ensure_folder(parent)
            children = self._folders[parent]
        children.add(path)
        stored = bytes(content) if self.retain_content else None
        self._files[path] = _Object(stored, len(content), mtime)
        self.used_bytes += delta

    def make_folder(self, path: str) -> None:
        self._ensure_folder(normalize(path))

    def delete(self, path: str) -> None:
        """Delete a file, or a folder subtree.  Idempotent."""
        path = normalize(path)
        if path in self._files:
            self.used_bytes -= self._files.pop(path).size
        elif path in self._folders and path != "/":
            for child in list(self._folders[path]):
                self.delete(child)
            del self._folders[path]
        else:
            return
        self._folders[posixpath.dirname(path)].discard(path)

    # -- fault seams ------------------------------------------------------

    def corrupt(self, path: str) -> None:
        """Silently flip bits in a stored file (bit rot / torn write).

        Size and mtime are preserved — nothing short of reading the
        content back can tell; exactly the failure an integrity scrub
        must catch.  Requires ``retain_content`` (a size-only store has
        no bytes to rot).  Raises :class:`NotFoundError` on a missing
        file so fault scripts target real objects.
        """
        path = normalize(path)
        record = self._files.get(path)
        if record is None:
            raise NotFoundError(self.cloud_id, f"no such file: {path}")
        if not self.retain_content:
            raise RuntimeError(
                f"{self.cloud_id}: cannot corrupt with retain_content=False"
            )
        content = bytearray(record.content)
        if not content:
            return  # empty object: nothing to rot
        content[0] ^= 0xFF
        content[-1] ^= 0xFF
        record.content = bytes(content)

    def wipe(self) -> None:
        """Destroy every object and folder (permanent provider loss)."""
        self._files = {}
        self._folders = {"/": set()}
        self.used_bytes = 0

    # -- internals ------------------------------------------------------

    def _ensure_folder(self, folder: str) -> None:
        """Create ``folder`` and its missing ancestors; a file conflicts."""
        if folder in self._files:
            raise ConflictError(self.cloud_id, f"path is a file: {folder}")
        if folder not in self._folders:
            parent = posixpath.dirname(folder)
            self._ensure_folder(parent)
            self._folders[folder] = set()
            self._folders[parent].add(folder)
