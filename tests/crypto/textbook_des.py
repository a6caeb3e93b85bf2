"""Table-free textbook DES (FIPS 46-3) and counter mode, a block at a time.

The reference :mod:`repro.crypto` is checked against: every permutation
walked bit by bit, the S-boxes read by row and column, decryption as the
subkeys in reverse, and the keystream one counter block per call.  Slow
on purpose; nothing here shares a table with the vector kernel.
"""

import functools
import hashlib
import hmac

from repro.crypto.des import _FP, _IP, _P, _SBOXES, DES, _permute

# Expansion from 32 to 48 bits.
_E = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
]


def feistel(half: int, subkey: int) -> int:
    expanded = _permute(half, 32, _E) ^ subkey
    out = 0
    for box in range(8):
        chunk = (expanded >> (42 - 6 * box)) & 0x3F
        row = ((chunk >> 4) & 0x2) | (chunk & 0x1)
        col = (chunk >> 1) & 0xF
        out = (out << 4) | _SBOXES[box][row][col]
    return _permute(out, 32, _P)


@functools.lru_cache(maxsize=64)
def _subkeys(key: bytes) -> tuple:
    return tuple(DES._key_schedule(int.from_bytes(key, "big")))


def _crypt(key: bytes, block: bytes, decrypt: bool) -> bytes:
    if len(block) != 8:
        raise ValueError(f"block must be 8 bytes, got {len(block)}")
    subkeys = _subkeys(bytes(key))
    if decrypt:
        subkeys = subkeys[::-1]
    value = _permute(int.from_bytes(block, "big"), 64, _IP)
    left, right = value >> 32, value & 0xFFFFFFFF
    for subkey in subkeys:
        left, right = right, left ^ feistel(right, subkey)
    return _permute((right << 32) | left, 64, _FP).to_bytes(8, "big")


def encrypt_block(key: bytes, block: bytes) -> bytes:
    return _crypt(key, block, decrypt=False)


def decrypt_block(key: bytes, block: bytes) -> bytes:
    return _crypt(key, block, decrypt=True)


def seal(key: bytes, plaintext: bytes, iv: bytes = None) -> bytes:
    """``iv || PKCS#5(plaintext) ^ keystream``; ``iv`` defaults to the
    synthetic one, ``HMAC-SHA1(key, plaintext)[:8]``."""
    if iv is None:
        iv = hmac.new(key, plaintext, hashlib.sha1).digest()[:8]
    fill = 8 - len(plaintext) % 8
    padded = plaintext + bytes([fill]) * fill
    counter = int.from_bytes(iv, "big")
    out = [iv]
    for i in range(0, len(padded), 8):
        pad_block = ((counter + i // 8) % 2 ** 64).to_bytes(8, "big")
        keystream = encrypt_block(key, pad_block)
        out.append(bytes(a ^ b for a, b in zip(padded[i:i + 8], keystream)))
    return b"".join(out)
