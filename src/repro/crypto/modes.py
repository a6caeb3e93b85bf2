"""CBC mode and PKCS#5 padding over the DES block primitive.

`encrypt_cbc` prepends the IV to the ciphertext so the output is
self-contained — the metadata file stored in the clouds is exactly this
byte string.

Both functions are pure and run the cipher on every call: nothing here
remembers a plaintext.  Who may skip a decrypt because they already hold
the result is the caller's business (each ``UniDriveClient`` keeps its
own two blobs; see DESIGN.md "Metadata cost model").
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .des import BLOCK_SIZE, DES

__all__ = [
    "pad",
    "unpad",
    "encrypt_cbc",
    "decrypt_cbc",
    "PaddingError",
]


class PaddingError(ValueError):
    """Raised when ciphertext does not decrypt to valid PKCS#5 padding."""


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


def encrypt_cbc(key: bytes, plaintext: bytes, iv: bytes) -> bytes:
    """DES-CBC encrypt; returns ``iv || ciphertext``."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be 8 bytes, got {len(iv)}")
    blocks = np.frombuffer(pad(plaintext), dtype=">u8").astype(np.uint64)
    ciphertext = _cipher(bytes(key)).encrypt_cbc_blocks(
        blocks, int.from_bytes(iv, "big")
    )
    return bytes(iv) + ciphertext.astype(">u8").tobytes()


def decrypt_cbc(key: bytes, blob: bytes) -> bytes:
    """Decrypt ``iv || ciphertext`` produced by :func:`encrypt_cbc`.

    ``P_i = D(C_i) ^ C_{i-1}`` has no chain through the plaintext, so
    every block goes through :meth:`DES.decrypt_blocks` in one vector.
    The numpy set-up costs about 25 scalar blocks' worth (0.3 ms); no
    metadata blob but the one-record delta right after a fold is that
    small, so there is no scalar path to fall back to.
    """
    if len(blob) < 2 * BLOCK_SIZE or len(blob) % BLOCK_SIZE != 0:
        raise PaddingError("ciphertext too short or misaligned")
    blocks = np.frombuffer(blob, dtype=">u8").astype(np.uint64)
    plain = _cipher(bytes(key)).decrypt_blocks(blocks[1:]) ^ blocks[:-1]
    return unpad(plain.astype(">u8").tobytes())
