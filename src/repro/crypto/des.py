"""The DES block cipher (FIPS 46-3), implemented from scratch.

The UniDrive paper (§4) encrypts the serialized ``SyncFolderImage`` with
DES before replicating it to the clouds, so the metadata is opaque to any
single provider.  This module provides the raw 64-bit block primitive;
:mod:`repro.crypto.modes` layers CBC and padding on top.

DES is implemented the textbook way — initial/final permutations, 16
Feistel rounds with expansion, S-boxes and the P permutation, and the
PC-1/PC-2 key schedule.  It is validated against published NIST test
vectors in the test suite.  (DES is *not* a modern cipher; it is used
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

# Expansion from 32 to 48 bits.
_E = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
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


# -- precomputed lookup tables for the block hot path ---------------------
#
# The straightforward implementation above walks a permutation table
# bit-by-bit: 34 `_permute` calls per block (IP, FP, and E+P in each of
# the 16 rounds) dominate every metadata encrypt/decrypt.  All of DES's
# permutations are linear over OR of disjoint bit sets, so each one
# collapses into byte- (or 6-bit-) indexed table lookups built at import
# time by the reference `_permute` run over numpy arrays of every input
# at once — the same FIPS constants, one array op per table bit instead
# of one Python call per entry; the tests pin every entry against scalar
# `_permute` and the NIST vectors pin the outputs as bit-identical.
#
# * ``_SP[box][chunk]`` fuses S-box ``box`` with the P permutation: the
#   P-image of that box's 4-bit output placed in its lane.
# * ``_PAIR[j]`` fuses two of those: the even boxes read disjoint 6-bit
#   windows of ``ext ^ even_mask`` at bits 28/20/12/4, the odd boxes of
#   ``ext ^ odd_mask`` at 24/16/8/0, so boxes (0,2), (4,6), (1,3) and
#   (5,7) each index one table by a 14-bit slice ``hi << 8 | lo`` (bits
#   6-7 ignored).  A Feistel round is 4 lookups XORed together.
# * ``_IP_TAB[i][byte]`` / ``_FP_TAB[i][byte]`` give byte ``i``'s
#   contribution to the initial/final permutation of a 64-bit block.
# * The expansion E needs no table at all: its 6-bit chunks are sliding
#   windows over the 32-bit half extended by one wraparound bit on each
#   side (built inline in ``DES._rounds``).

_CHUNK = np.arange(64)
_BOX_OUT = np.array(_SBOXES, dtype=np.uint64).reshape(8, 64)[
    :, (((_CHUNK >> 4) & 0x2) | (_CHUNK & 0x1)) * 16 + ((_CHUNK >> 1) & 0xF)
] << (28 - 4 * np.arange(8, dtype=np.uint64))[:, None]  # row * 16 + col
_SP: List[List[int]] = _permute(_BOX_OUT, 32, _P).tolist()

_BYTES = np.arange(256, dtype=np.uint64) << (
    56 - 8 * np.arange(8, dtype=np.uint64)
)[:, None]
_IP_VEC = _permute(_BYTES, 64, _IP)
_FP_VEC = _permute(_BYTES, 64, _FP)
_IP_TAB: List[List[int]] = _IP_VEC.tolist()
_FP_TAB: List[List[int]] = _FP_VEC.tolist()

_PAIRS = ((0, 2), (4, 6), (1, 3), (5, 7))
_I14 = np.arange(1 << 14)
# The Feistel halves run as int64 in :meth:`DES.decrypt_blocks` (the
# 34-bit ``ext`` windows do not fit 32), the 64-bit permutations as
# uint64; the scalar rounds read the same tables as Python lists.
_PAIR_VEC = np.array([
    np.take(_SP[a], (_I14 >> 8) & 63) ^ np.take(_SP[b], _I14 & 63)
    for a, b in _PAIRS
], dtype=np.int64)
_PAIR: List[List[int]] = _PAIR_VEC.tolist()
_U64 = np.uint64


def _permute64_vec(values: np.ndarray, tables: np.ndarray) -> np.ndarray:
    out = tables[0].take((values >> _U64(56)).astype(np.intp))
    for i in range(1, 8):
        out |= tables[i].take(
            ((values >> _U64(56 - 8 * i)) & _U64(0xFF)).astype(np.intp)
        )
    return out


def _permute64_tab(value: int, tables: List[List[int]]) -> int:
    return (
        tables[0][(value >> 56) & 0xFF]
        | tables[1][(value >> 48) & 0xFF]
        | tables[2][(value >> 40) & 0xFF]
        | tables[3][(value >> 32) & 0xFF]
        | tables[4][(value >> 24) & 0xFF]
        | tables[5][(value >> 16) & 0xFF]
        | tables[6][(value >> 8) & 0xFF]
        | tables[7][value & 0xFF]
    )


class DES:
    """A DES instance bound to one 8-byte key.

    Parity bits in the key (the least-significant bit of every byte) are
    ignored, per the standard.
    """

    def __init__(self, key: bytes):
        if len(key) != 8:
            raise ValueError(f"DES key must be 8 bytes, got {len(key)}")
        self.key = bytes(key)
        self._subkeys = self._key_schedule(int.from_bytes(key, "big"))
        # Each 48-bit subkey as the two masks XORed into ``ext`` once per
        # round: the even boxes' six-bit chunks at bits 28/20/12/4, the
        # odd boxes' at 24/16/8/0 (see ``_PAIR``).
        self._masks = []
        for sk in self._subkeys:
            k = [(sk >> (42 - 6 * box)) & 0x3F for box in range(8)]
            self._masks.append((
                (k[0] << 28) | (k[2] << 20) | (k[4] << 12) | (k[6] << 4),
                (k[1] << 24) | (k[3] << 16) | (k[5] << 8) | k[7],
            ))
        self._masks_rev = self._masks[::-1]

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

    @staticmethod
    def _feistel(half: int, subkey: int) -> int:
        # Reference (table-free) round function; the hot paths below
        # inline the equivalent paired-SP lookups.
        expanded = _permute(half, 32, _E) ^ subkey
        out = 0
        for box in range(8):
            chunk = (expanded >> (42 - 6 * box)) & 0x3F
            row = ((chunk >> 4) & 0x2) | (chunk & 0x1)
            col = (chunk >> 1) & 0xF
            out = (out << 4) | _SBOXES[box][row][col]
        return _permute(out, 32, _P)

    @staticmethod
    def _rounds(values: List[int], state: int, keys: list) -> List[int]:
        """The 16 rounds over IP-domain blocks, CBC-chained.

        Each value is XORed with ``state`` — the previous output — before
        its rounds.  Each output is ``R16 || L16``, which is IP of the
        ciphertext block because FP = IP^-1, so ``IP(C_{i-1} ^ P_i) =
        out_{i-1} ^ IP(P_i)``: the chain never leaves the IP domain and
        IP/FP run once over the whole vector.  One value with
        ``state = 0`` is a plain block.
        """
        t02, t46, t13, t57 = _PAIR
        out = []
        for value in values:
            value ^= state
            left = value >> 32
            right = value & 0xFFFFFFFF
            for even_mask, odd_mask in keys:
                # E(right) as overlapping 6-bit windows over ``right``
                # extended by one wraparound bit on each side.
                ext = ((right & 1) << 33) | (right << 1) | (right >> 31)
                even = ext ^ even_mask
                odd = ext ^ odd_mask
                left, right = right, (
                    left
                    ^ t02[(even >> 20) & 0x3F3F] ^ t46[(even >> 4) & 0x3F3F]
                    ^ t13[(odd >> 16) & 0x3F3F] ^ t57[odd & 0x3F3F]
                )
            state = (right << 32) | left
            out.append(state)
        return out

    def _crypt_block(self, block64: int, decrypt: bool) -> int:
        keys = self._masks_rev if decrypt else self._masks
        (value,) = self._rounds([_permute64_tab(block64, _IP_TAB)], 0, keys)
        return _permute64_tab(value, _FP_TAB)

    def encrypt_cbc_blocks(self, blocks: np.ndarray, iv: int) -> np.ndarray:
        """CBC-encrypt a ``uint64`` vector of blocks chained from ``iv``.

        IP of every block is one vector pass, the serial chain runs only
        the rounds (:meth:`_rounds`), and FP of every output is one more.
        """
        chained = self._rounds(
            _permute64_vec(blocks, _IP_VEC).tolist(),
            _permute64_tab(iv, _IP_TAB),
            self._masks,
        )
        return _permute64_vec(np.array(chained, dtype=np.uint64), _FP_VEC)

    def decrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Decrypt a ``uint64`` vector of independent blocks at once.

        The same paired-table rounds as :meth:`_rounds`, each lookup one
        ``take`` over every block — ECB decryption is data-parallel, and
        so is CBC *decryption* (``P_i = D(C_i) ^ C_{i-1}``;
        :func:`repro.crypto.modes.decrypt_cbc`).  CBC encryption chains
        through the previous ciphertext block and stays serial.
        """
        value = _permute64_vec(blocks, _IP_VEC)
        left = (value >> _U64(32)).astype(np.int64)
        right = (value & _U64(0xFFFFFFFF)).astype(np.int64)
        t02, t46, t13, t57 = _PAIR_VEC
        for even_mask, odd_mask in self._masks_rev:
            ext = ((right & 1) << 33) | (right << 1) | (right >> 31)
            even = ext ^ even_mask
            odd = ext ^ odd_mask
            f = t02.take((even >> 20) & 0x3F3F)
            f ^= t46.take((even >> 4) & 0x3F3F)
            f ^= t13.take((odd >> 16) & 0x3F3F)
            f ^= t57.take(odd & 0x3F3F)
            left, right = right, left ^ f
        # Halves are swapped before the final permutation.
        swapped = right.astype(np.uint64) << _U64(32)
        swapped |= left.astype(np.uint64)
        return _permute64_vec(swapped, _FP_VEC)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 8 bytes, got {len(block)}")
        value = int.from_bytes(block, "big")
        return self._crypt_block(value, decrypt=False).to_bytes(8, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 8 bytes, got {len(block)}")
        value = int.from_bytes(block, "big")
        return self._crypt_block(value, decrypt=True).to_bytes(8, "big")
