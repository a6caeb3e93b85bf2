"""Metadata wire formats: every metadata file a cloud holds.

The image serializes to canonical JSON (sorted keys, compact
separators) so identical logical states produce identical bytes, then is
DES encrypted before upload — no cloud provider can read the file
hierarchy (paper §4).  The IV is :func:`repro.crypto.synthetic_iv` of
the plaintext, making serialization fully deterministic (valuable for
dedup of identical metadata and for reproducible tests), and the reader
re-derives it, so a blob altered in the cloud does not decode.  Every
call runs the cipher; a device that already holds a blob's decoded form
skips the call (``UniDriveClient._decode``), nothing below this module
remembers.

The tiny version file is deliberately *not* encrypted: it contains only
a counter and a device name and must stay as small as possible because
it is polled every τ seconds.  Device heartbeats (the version each
device has applied) are plain JSON too.  The delta log's format lives
with the log (:mod:`repro.core.deltasync`).  Every parser here returns
a value whose field types are checked or raises :class:`MetadataError`.
"""

from __future__ import annotations

import json

from ..crypto import decrypt_cbc, encrypt_cbc, synthetic_iv
from .metadata import (
    MALFORMED,
    MetadataError,
    SyncFolderImage,
    VersionStamp,
    wire_counter,
)

__all__ = [
    "serialize_image",
    "deserialize_image",
    "serialize_version",
    "deserialize_version",
    "serialize_heartbeat",
    "deserialize_heartbeat",
    "canonical_json",
]


def canonical_json(payload: dict) -> bytes:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def serialize_image(image: SyncFolderImage, key: bytes) -> bytes:
    """Encode and encrypt a SyncFolderImage for cloud storage."""
    plaintext = canonical_json(image.to_dict())
    return encrypt_cbc(key, plaintext, synthetic_iv(key, plaintext))


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
    """Parse a version file; :class:`MetadataError` unless well-typed."""
    try:
        return VersionStamp.from_dict(json.loads(blob.decode()))
    except MALFORMED as exc:
        raise MetadataError(f"undecodable version file: {exc!r}") from exc


def serialize_heartbeat(device: str, applied: int) -> bytes:
    """A device's heartbeat: the metadata version it has applied."""
    return json.dumps({"device": device, "applied": applied}).encode()


def deserialize_heartbeat(blob: bytes, device: str) -> int:
    """The version ``device``'s heartbeat says it has applied.  One
    naming another device is undecodable: it would stand in for that
    device and drop ``device`` from the fleet."""
    try:
        payload = json.loads(blob.decode())
        if payload["device"] != device:
            raise ValueError(f"heartbeat of {payload['device']!r}")
        return wire_counter(payload["applied"])
    except MALFORMED as exc:
        raise MetadataError(f"undecodable heartbeat: {exc!r}") from exc
