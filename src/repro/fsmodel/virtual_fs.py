"""In-memory model of a device's local sync folder.

The UniDrive client is written against this small filesystem interface;
:class:`VirtualFileSystem` backs simulations (content lives in memory,
mtimes come from the simulation clock supplied by the caller), while
:class:`LocalDirFileSystem` adapts a real directory for the examples.
"""

from __future__ import annotations

import hashlib
import os
import posixpath
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["FileStat", "VirtualFileSystem", "LocalDirFileSystem"]


@dataclass(frozen=True)
class FileStat:
    """What a directory scan records about one file."""

    path: str
    size: int
    mtime: float
    digest: str  # SHA-1 of content; cheap in-memory, cached on disk


def _normalize(path: str) -> str:
    return posixpath.normpath("/" + path.strip("/"))


class VirtualFileSystem:
    """Normalized paths to content, and to a stat built at write time."""

    def __init__(self):
        self._content: Dict[str, bytes] = {}
        self._stats: Dict[str, FileStat] = {}

    def write_file(self, path: str, content: bytes, mtime: float) -> None:
        path = _normalize(path)
        self._content[path] = bytes(content)
        self._stats[path] = FileStat(path, len(content), mtime,
                                     hashlib.sha1(content).hexdigest())

    def read_file(self, path: str) -> bytes:
        path = _normalize(path)
        if path not in self._content:
            raise FileNotFoundError(path)
        return self._content[path]

    def delete_file(self, path: str) -> None:
        path = _normalize(path)
        self._content.pop(path, None)
        self._stats.pop(path, None)

    def exists(self, path: str) -> bool:
        return _normalize(path) in self._content

    def scan(self) -> Dict[str, FileStat]:
        """Snapshot every file: a copy of the stat map built at write
        time, so an unchanged file keeps its stat object across scans."""
        return dict(self._stats)

    def paths(self) -> List[str]:
        return sorted(self._content)


class LocalDirFileSystem:
    """The same interface over a real directory (for example scripts)."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _real(self, path: str) -> str:
        return os.path.join(self.root, _normalize(path).lstrip("/"))

    def write_file(self, path: str, content: bytes, mtime: float = 0.0) -> None:
        real = self._real(path)
        os.makedirs(os.path.dirname(real), exist_ok=True)
        with open(real, "wb") as handle:
            handle.write(content)

    def read_file(self, path: str) -> bytes:
        real = self._real(path)
        if not os.path.isfile(real):
            raise FileNotFoundError(path)
        with open(real, "rb") as handle:
            return handle.read()

    def delete_file(self, path: str) -> None:
        real = self._real(path)
        if os.path.isfile(real):
            os.remove(real)

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._real(path))

    def scan(self) -> Dict[str, FileStat]:
        out = {}
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                real = os.path.join(dirpath, name)
                rel = "/" + os.path.relpath(real, self.root).replace(os.sep, "/")
                with open(real, "rb") as handle:
                    content = handle.read()
                out[rel] = FileStat(
                    rel,
                    len(content),
                    os.path.getmtime(real),
                    hashlib.sha1(content).hexdigest(),
                )
        return out

    def paths(self) -> List[str]:
        return sorted(self.scan())
