"""DES known-answer tests and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import DES
from repro.crypto.des import (
    _FP, _FP_TAB, _FP_VEC, _IP, _IP_TAB, _IP_VEC, _P, _PAIR, _PAIR_VEC,
    _PAIRS, _SBOXES, _SP, _permute,
)

#: (key, plaintext, ciphertext) known answers: the classic worked
#: example plus rows of the NIST SP 800-17 variable-plaintext,
#: permutation-operation and substitution-table tests.
KNOWN_ANSWERS = [
    ("133457799BBCDFF1", "0123456789ABCDEF", "85E813540F0AB405"),
    ("10316E028C8F3B4A", "0000000000000000", "82DCBAFBDEAB6602"),
    ("0101010101010101", "95F8A5E5DD31D900", "8000000000000000"),
    ("0101010101010101", "8000000000000000", "95F8A5E5DD31D900"),
    ("7CA110454A1A6E57", "01A1D6D039776742", "690F5B0D9A26939B"),
    ("0131D9619DC1376E", "5CD54CA83DEF57DA", "7A389D10354BD271"),
]


def as_blocks(*hex_blocks):
    return np.array([int(h, 16) for h in hex_blocks], dtype=np.uint64)


def test_known_vector_classic():
    # Widely published DES KAT (key/plaintext/ciphertext triple).
    key = bytes.fromhex("133457799BBCDFF1")
    plaintext = bytes.fromhex("0123456789ABCDEF")
    expected = bytes.fromhex("85E813540F0AB405")
    assert DES(key).encrypt_block(plaintext) == expected


def test_known_vector_nist_all_zero_plaintext():
    key = bytes.fromhex("10316E028C8F3B4A")
    plaintext = bytes.fromhex("0000000000000000")
    expected = bytes.fromhex("82DCBAFBDEAB6602")
    assert DES(key).encrypt_block(plaintext) == expected


def test_known_vector_weak_key_style():
    key = bytes.fromhex("0101010101010101")
    plaintext = bytes.fromhex("95F8A5E5DD31D900")
    expected = bytes.fromhex("8000000000000000")
    assert DES(key).encrypt_block(plaintext) == expected


def test_decrypt_inverts_known_vector():
    key = bytes.fromhex("133457799BBCDFF1")
    ciphertext = bytes.fromhex("85E813540F0AB405")
    expected = bytes.fromhex("0123456789ABCDEF")
    assert DES(key).decrypt_block(ciphertext) == expected


@pytest.mark.parametrize("key,plaintext,ciphertext", KNOWN_ANSWERS)
def test_known_vectors_all_paths(key, plaintext, ciphertext):
    cipher = DES(bytes.fromhex(key))
    assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex().upper() \
        == ciphertext
    assert cipher.decrypt_block(bytes.fromhex(ciphertext)).hex().upper() \
        == plaintext
    # The vector path, alone and with neighbours that must not bleed.
    assert cipher.decrypt_blocks(as_blocks(ciphertext)).tolist() \
        == [int(plaintext, 16)]
    got = cipher.decrypt_blocks(
        as_blocks("FFFFFFFFFFFFFFFF", ciphertext, "0000000000000000")
    )
    assert int(got[1]) == int(plaintext, 16)


def test_parity_bits_ignored():
    # Keys differing only in per-byte parity bits are equivalent.
    key_a = bytes.fromhex("133457799BBCDFF1")
    key_b = bytes(b ^ 1 for b in key_a)
    block = b"UniDrive"
    assert DES(key_a).encrypt_block(block) == DES(key_b).encrypt_block(block)


def test_key_length_validated():
    with pytest.raises(ValueError):
        DES(b"short")


def test_block_length_validated():
    cipher = DES(b"\x00" * 8)
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"tiny")
    with pytest.raises(ValueError):
        cipher.decrypt_block(b"way too long!!!!")


@given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
def test_encrypt_decrypt_roundtrip(key, block):
    cipher = DES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(st.binary(min_size=8, max_size=8))
def test_encryption_changes_block(block):
    # DES is a permutation; a fixed point for this key/plaintext pair is
    # astronomically unlikely, and determinism must hold.
    cipher = DES(b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1")
    first = cipher.encrypt_block(block)
    second = cipher.encrypt_block(block)
    assert first == second


@settings(max_examples=30, deadline=None)
@given(
    st.binary(min_size=8, max_size=8),
    st.one_of(st.integers(1, 80), st.sampled_from([1000, 20_000])),
    st.integers(0, 2 ** 32 - 1),
)
def test_vector_decrypt_matches_scalar(key, n_blocks, seed):
    """decrypt_blocks == decrypt_block on every block, 1 … 20 k blocks
    of arbitrary bits (so all-ones, high-bit and wraparound halves turn
    up), under arbitrary keys."""
    cipher = DES(key)
    blocks = np.random.default_rng(seed).integers(
        0, 2 ** 64, size=n_blocks, dtype=np.uint64
    )
    blocks[0] = np.uint64(2 ** 64 - 1)
    got = cipher.decrypt_blocks(blocks)
    assert got.dtype == np.uint64 and got.shape == blocks.shape
    expected = [cipher._crypt_block(int(b), True) for b in blocks]
    assert got.tolist() == expected


def test_tables_match_scalar_permute():
    """Every entry of the array-built tables equals one scalar
    ``_permute`` of the same input, in both the list and vector copy."""
    for table, listed, vector in ((_IP, _IP_TAB, _IP_VEC),
                                  (_FP, _FP_TAB, _FP_VEC)):
        expected = [
            [_permute(byte << (56 - 8 * i), 64, table) for byte in range(256)]
            for i in range(8)
        ]
        assert listed == expected
        assert vector.tolist() == expected
    for box in range(8):
        expected = []
        for chunk in range(64):
            row = ((chunk >> 4) & 0x2) | (chunk & 0x1)
            out = _SBOXES[box][row][(chunk >> 1) & 0xF] << (28 - 4 * box)
            expected.append(_permute(out, 32, _P))
        assert _SP[box] == expected


@pytest.mark.parametrize("row", range(4))
def test_pair_tables_fuse_two_sboxes(row):
    """Every 14-bit index of a pair table, scalar and vector copy."""
    a, b = _PAIRS[row]
    expected = [_SP[a][i >> 8 & 63] ^ _SP[b][i & 63] for i in range(1 << 14)]
    assert _PAIR[row] == expected
    assert _PAIR_VEC[row].tolist() == expected


@settings(max_examples=50)
@given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
def test_paired_rounds_match_textbook_des(key, block):
    """The table-free reference — bitwise IP, ``_feistel`` per round,
    bitwise FP — agrees with the paired-table block cipher."""
    cipher = DES(key)
    value = _permute(int.from_bytes(block, "big"), 64, _IP)
    left, right = value >> 32, value & 0xFFFFFFFF
    for subkey in cipher._subkeys:
        left, right = right, left ^ DES._feistel(right, subkey)
    expected = _permute((right << 32) | left, 64, _FP)
    assert cipher.encrypt_block(block) == expected.to_bytes(8, "big")
