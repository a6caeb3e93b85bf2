"""The DES block cipher (FIPS 46-3), implemented from scratch.

The UniDrive paper (§4) encrypts the serialized ``SyncFolderImage`` with
DES before replicating it to the clouds, so the metadata is opaque to any
single provider.  This module provides the 64-bit block primitive as
one vector kernel, forward direction only; :mod:`repro.crypto.modes`
runs it in counter mode under a synthetic IV, with padding.

The kernel computes textbook DES — initial/final permutations, 16
Feistel rounds with expansion, S-boxes and the P permutation, and the
PC-1/PC-2 key schedule — through precomputed tables.  The test suite
keeps a table-free, block-at-a-time reference and checks both against
published NIST test vectors.  (DES is *not* a modern cipher; it is used
here because it is what the paper names.)
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["DES", "BLOCK_SIZE"]

BLOCK_SIZE = 8

# Initial permutation (IP); 1-based bit positions from the standard.
_IP = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
]

# Final permutation (IP^-1).
_FP = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
]

# Permutation applied to the S-box output.
_P = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
]

# The eight S-boxes, each 4 rows x 16 columns.
_SBOXES = [
    [
        [14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7],
        [0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8],
        [4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0],
        [15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13],
    ],
    [
        [15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10],
        [3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5],
        [0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15],
        [13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9],
    ],
    [
        [10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8],
        [13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1],
        [13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7],
        [1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12],
    ],
    [
        [7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15],
        [13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9],
        [10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4],
        [3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14],
    ],
    [
        [2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9],
        [14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6],
        [4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14],
        [11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3],
    ],
    [
        [12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11],
        [10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8],
        [9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6],
        [4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13],
    ],
    [
        [4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1],
        [13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6],
        [1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2],
        [6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12],
    ],
    [
        [13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7],
        [1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2],
        [7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8],
        [2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11],
    ],
]

# Key schedule: PC-1 (64 -> 56 bits) and PC-2 (56 -> 48 bits).
_PC1 = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
]

_PC2 = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
]

_SHIFTS = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1]


def _permute(value, width: int, table: List[int]):
    """Apply a DES bit permutation (1-based, MSB-first positions).

    ``value`` is an int, or a ``uint64`` array permuted elementwise.
    """
    out = 0
    for position in table:
        out = (out << 1) | ((value >> (width - position)) & 1)
    return out


def _rotate28(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (28 - amount))) & 0x0FFFFFFF


# -- lookup tables for the vector kernel ----------------------------------
#
# Walking a permutation table bit by bit (`_permute`) would cost 34 calls
# per block (IP, FP, and E+P in each of the 16 rounds).  All of DES's
# permutations are linear over OR of disjoint bit sets, so each one
# collapses into byte- (or 6-bit-) indexed table lookups, built at import
# time by `_permute` run over numpy arrays of every input at once; the
# tests pin every entry against scalar `_permute` and the NIST vectors
# pin the outputs.
#
# * ``_SP[box][chunk]`` fuses S-box ``box`` with the P permutation: the
#   P-image of that box's 4-bit output placed in its lane.
# * ``_PAIR_VEC[j]`` fuses two of those, boxes ``_PAIRS[j]``, indexed by
#   the 14-bit slice ``hi << 8 | lo`` of their two 6-bit inputs (bits
#   6-7 ignored).  A round is 4 lookups XORed.  Entries are *doubled*,
#   ``x | x << 32``, like the Feistel halves they are XORed into.
# * ``_IP_VEC[i][byte]`` / ``_FP_VEC[i][byte]`` give the contribution of
#   the byte at bits ``8i .. 8i+7`` to the initial/final permutation.
# * The expansion E needs no table at all.  Its eight 6-bit windows
#   slide over the 32-bit half with one wraparound bit on each side, so
#   over a doubled half every pair's two windows are one right shift
#   (``_WINDOWS``) and a mask away.

_CHUNK = np.arange(64)
_BOX_OUT = np.array(_SBOXES, dtype=np.uint64).reshape(8, 64)[
    :, (((_CHUNK >> 4) & 0x2) | (_CHUNK & 0x1)) * 16 + ((_CHUNK >> 1) & 0xF)
] << (28 - 4 * np.arange(8, dtype=np.uint64))[:, None]  # row * 16 + col
_SP: List[List[int]] = _permute(_BOX_OUT, 32, _P).tolist()

_BYTES = np.arange(256, dtype=np.uint64) << (
    8 * np.arange(8, dtype=np.uint64)
)[:, None]
_IP_VEC = _permute(_BYTES, 64, _IP)
_FP_VEC = _permute(_BYTES, 64, _FP)

_PAIRS = ((0, 2), (4, 6), (1, 3), (5, 7))
_I14 = np.arange(1 << 14)
_U64 = np.uint64
_PAIR_VEC = np.array([
    np.take(_SP[a], (_I14 >> 8) & 63) ^ np.take(_SP[b], _I14 & 63)
    for a, b in _PAIRS
], dtype=np.uint64) * _U64(0x100000001)
_PAIR_FLAT = _PAIR_VEC.ravel()
# Pair j reads bits s .. s + 13 (s = 20, 4, 16, 0) of the half extended
# by one wraparound bit at each end, a 34-bit string whose 6-bit slices
# at bits 28, 24, ..., 0 are E's eight outputs.  Its bit k is bit k - 1
# of the doubled half (bit 31 for k = 0), hence shifts s - 1 and 31.
_WINDOWS =np.array([[19], [3], [15], [31]], dtype=np.uint64)
_LO = _U64(0xFFFFFFFF)
_HI = _U64(0xFFFFFFFF00000000)


def _permute64(values: np.ndarray, tables: np.ndarray) -> np.ndarray:
    octets = values.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = tables[0].take(octets[:, 0])
    for i in range(1, 8):
        out |= tables[i].take(octets[:, i])
    return out


class DES:
    """A DES instance bound to one 8-byte key.

    Parity bits in the key (the least-significant bit of every byte) are
    ignored, per the standard.  Only the forward cipher exists: counter
    mode (:mod:`repro.crypto.modes`) encrypts and decrypts with the same
    keystream, so nothing here ever runs the subkeys backwards.
    """

    def __init__(self, key: bytes):
        if len(key) != 8:
            raise ValueError(f"DES key must be 8 bytes, got {len(key)}")
        self.key = bytes(key)
        # Per round, what XORs into each pair's 14-bit table index: the
        # two boxes' six subkey bits, and the pair's offset in
        # ``_PAIR_FLAT``.
        self._round_keys = []
        for sk in self._key_schedule(int.from_bytes(key, "big")):
            k = [(sk >> (42 - 6 * box)) & 0x3F for box in range(8)]
            self._round_keys.append(np.array(
                [[j << 14 | k[a] << 8 | k[b]]
                 for j, (a, b) in enumerate(_PAIRS)],
                dtype=np.uint64,
            ))

    @staticmethod
    def _key_schedule(key64: int) -> List[int]:
        permuted = _permute(key64, 64, _PC1)
        c = (permuted >> 28) & 0x0FFFFFFF
        d = permuted & 0x0FFFFFFF
        subkeys = []
        for shift in _SHIFTS:
            c = _rotate28(c, shift)
            d = _rotate28(d, shift)
            subkeys.append(_permute((c << 28) | d, 56, _PC2))
        return subkeys

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt a ``uint64`` vector of independent blocks at once.

        IP and FP are eight byte lookups each; a round is one shift,
        mask and key XOR over a 4 x n index array, one ``take`` and one
        XOR reduction: ≈ 140 numpy calls whatever the length.
        """
        value = _permute64(blocks, _IP_VEC)
        left = value >> _U64(32)
        left |= value & _HI
        right = value << _U64(32)
        right |= value & _LO
        for key in self._round_keys:
            index = right >> _WINDOWS
            index &= _U64(0x3F3F)
            index ^= key
            f = np.bitwise_xor.reduce(
                _PAIR_FLAT.take(index.view(np.intp)), axis=0
            )
            f ^= left
            left, right = right, f
        # Halves are swapped before the final permutation.
        left &= _LO
        left |= right & _HI
        return _permute64(left, _FP_VEC)
