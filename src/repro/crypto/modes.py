"""Counter mode under a keyed synthetic IV, with PKCS#5 padding, over DES.

A sealed blob (wire format v2) is ``IV || (PKCS#5(P) ^ keystream)``:
block *i* (0-based) of the padded plaintext is XORed with
``DES_K((IV + i) mod 2**64)``, and ``IV = HMAC-SHA1(K, P)[:8]``
(:func:`synthetic_iv`).  Every keystream block is independent, so
sealing and opening are each one call of :meth:`DES.encrypt_blocks`
over the counter vector.  The IV is a function of key and plaintext,
so sealing is deterministic, and a reader re-derives it from what it
decrypted: a blob that was altered anywhere, or sealed in another
format, raises :class:`SyntheticIVError` or :class:`PaddingError`.

Both functions are pure and run the cipher on every call: nothing here
remembers a plaintext.  Who may skip a decrypt because they already hold
the result is the caller's business (each ``UniDriveClient`` keeps its
own two blobs; see DESIGN.md "Metadata cost model").
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict

import numpy as np

from .des import BLOCK_SIZE, DES

__all__ = [
    "pad",
    "unpad",
    "synthetic_iv",
    "encrypt_cbc",
    "decrypt_cbc",
    "PaddingError",
    "SyntheticIVError",
]


class PaddingError(ValueError):
    """Raised when ciphertext does not decrypt to valid PKCS#5 padding."""


class SyntheticIVError(ValueError):
    """Raised when a blob's IV is not the synthetic IV of its plaintext."""


def pad(data: bytes) -> bytes:
    """Apply PKCS#5 padding up to the 8-byte DES block size."""
    fill = BLOCK_SIZE - (len(data) % BLOCK_SIZE)
    return data + bytes([fill] * fill)


def unpad(data: bytes) -> bytes:
    """Strip PKCS#5 padding, validating it fully."""
    if not data or len(data) % BLOCK_SIZE != 0:
        raise PaddingError("padded data length must be a positive multiple of 8")
    fill = data[-1]
    if not 1 <= fill <= BLOCK_SIZE:
        raise PaddingError(f"invalid padding byte {fill}")
    if data[-fill:] != bytes([fill] * fill):
        raise PaddingError("corrupt padding")
    return data[:-fill]


def synthetic_iv(key: bytes, plaintext: bytes) -> bytes:
    """The IV a blob of ``plaintext`` under ``key`` must carry.

    Keyed, so a cloud cannot confirm a guessed plaintext by hashing it.
    """
    return hmac.new(bytes(key), plaintext, hashlib.sha1).digest()[:BLOCK_SIZE]


# Key schedules are deterministic per key, and every sync round encrypts
# and decrypts with the same folder key, so cache the DES instances.
_CIPHERS: "OrderedDict[bytes, DES]" = OrderedDict()
_CIPHER_CACHE_MAX = 64


def _cipher(key: bytes) -> DES:
    cached = _CIPHERS.get(key)
    if cached is None:
        cached = _CIPHERS[key] = DES(key)
        if len(_CIPHERS) > _CIPHER_CACHE_MAX:
            _CIPHERS.popitem(last=False)
    else:
        _CIPHERS.move_to_end(key)
    return cached


def _ctr(key: bytes, iv: bytes, data) -> bytes:
    """``data`` (whole blocks) XOR the keystream counted from ``iv``."""
    blocks = np.frombuffer(data, dtype=">u8")
    counters = np.arange(len(blocks), dtype=np.uint64)
    counters += np.uint64(int.from_bytes(iv, "big"))  # wraps mod 2**64
    keystream = _cipher(bytes(key)).encrypt_blocks(counters)
    return (blocks ^ keystream).astype(">u8").tobytes()


def encrypt_cbc(key: bytes, plaintext: bytes, iv: bytes) -> bytes:
    """Seal ``plaintext``: returns ``iv || (PKCS#5(plaintext) ^ keystream)``.

    The name predates the mode: this is counter mode, not CBC, kept so
    the callers' binding (which the benchmark tracer wraps) stays put.
    ``iv`` must be :func:`synthetic_iv` of ``plaintext`` for
    :func:`decrypt_cbc` to accept the blob.
    """
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be 8 bytes, got {len(iv)}")
    return bytes(iv) + _ctr(key, iv, pad(plaintext))


def decrypt_cbc(key: bytes, blob: bytes) -> bytes:
    """Open ``iv || body`` produced by :func:`encrypt_cbc`.

    Counter mode, despite the name (see :func:`encrypt_cbc`).  Raises
    :class:`PaddingError` or :class:`SyntheticIVError` for any blob
    that was not sealed, as it is, under ``key``.
    """
    if len(blob) < 2 * BLOCK_SIZE or len(blob) % BLOCK_SIZE != 0:
        raise PaddingError("ciphertext too short or misaligned")
    iv = bytes(blob[:BLOCK_SIZE])
    plaintext = unpad(_ctr(key, iv, memoryview(blob)[BLOCK_SIZE:]))
    if not hmac.compare_digest(synthetic_iv(key, plaintext), iv):
        raise SyntheticIVError("IV does not match the decrypted plaintext")
    return plaintext
