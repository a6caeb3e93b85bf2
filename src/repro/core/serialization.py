"""Metadata (de)serialization and at-rest encryption.

The image serializes to canonical JSON (sorted keys, compact
separators) so identical logical states produce identical bytes, then is
DES-CBC encrypted before upload — no cloud provider can read the file
hierarchy (paper §4).  The CBC IV is derived from the plaintext digest,
making serialization fully deterministic (valuable for dedup of
identical metadata and for reproducible tests).  Every call runs the
cipher; a device that already holds a blob's decoded form skips the call
(``UniDriveClient._decode``), nothing below this module remembers.

The tiny version file is deliberately *not* encrypted: it contains only
a counter and a device name and must stay as small as possible because
it is polled every τ seconds.
"""

from __future__ import annotations

import hashlib
import json

from ..crypto import decrypt_cbc, encrypt_cbc
from .metadata import MALFORMED, MetadataError, SyncFolderImage, VersionStamp

__all__ = [
    "serialize_image",
    "deserialize_image",
    "serialize_version",
    "deserialize_version",
    "canonical_json",
]


def canonical_json(payload: dict) -> bytes:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def serialize_image(image: SyncFolderImage, key: bytes) -> bytes:
    """Encode and encrypt a SyncFolderImage for cloud storage."""
    plaintext = canonical_json(image.to_dict())
    iv = hashlib.sha1(plaintext).digest()[:8]
    return encrypt_cbc(key, plaintext, iv)


def deserialize_image(blob: bytes, key: bytes) -> SyncFolderImage:
    """Decrypt and decode a SyncFolderImage fetched from a cloud.

    Raises :class:`MetadataError` for anything but a well-formed image.
    """
    try:
        plaintext = decrypt_cbc(key, blob)
        return SyncFolderImage.from_dict(json.loads(plaintext.decode()))
    except MALFORMED as exc:
        raise MetadataError(f"undecodable base image: {exc!r}") from exc


def serialize_version(stamp: VersionStamp) -> bytes:
    return canonical_json(stamp.to_dict())


def deserialize_version(blob: bytes) -> VersionStamp:
    return VersionStamp.from_dict(json.loads(blob.decode()))
