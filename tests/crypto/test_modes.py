"""Tests for CBC mode and PKCS#5 padding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    DES,
    PaddingError,
    decrypt_cbc,
    encrypt_cbc,
    pad,
    unpad,
)

KEY = b"metakey1"
IV = b"\x00\x01\x02\x03\x04\x05\x06\x07"


def scalar_decrypt_cbc(key, blob):
    """The block-at-a-time CBC decrypt the vector path replaced."""
    cipher = DES(key)
    out = []
    for offset in range(8, len(blob), 8):
        plain = cipher.decrypt_block(blob[offset:offset + 8])
        out.append(bytes(
            a ^ b for a, b in zip(plain, blob[offset - 8:offset])
        ))
    return unpad(b"".join(out))


def scalar_encrypt_cbc(key, plaintext, iv):
    """CBC one block at a time through the bare block cipher: the chain
    ``C_i = E(P_i ^ C_{i-1})`` with IP and FP around every block."""
    cipher = DES(key)
    padded = pad(plaintext)
    out = [iv]
    previous = int.from_bytes(iv, "big")
    for offset in range(0, len(padded), 8):
        block = int.from_bytes(padded[offset:offset + 8], "big")
        previous = cipher._crypt_block(block ^ previous, False)
        out.append(previous.to_bytes(8, "big"))
    return b"".join(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except PaddingError:
        return PaddingError


def test_pad_lengths():
    assert len(pad(b"")) == 8
    assert len(pad(b"1234567")) == 8
    assert len(pad(b"12345678")) == 16


def test_pad_unpad_roundtrip():
    for size in range(0, 33):
        data = bytes(range(size % 256))[:size]
        assert unpad(pad(data)) == data


def test_unpad_rejects_garbage():
    with pytest.raises(PaddingError):
        unpad(b"")
    with pytest.raises(PaddingError):
        unpad(b"\x00" * 8)  # padding byte 0 invalid
    with pytest.raises(PaddingError):
        unpad(b"\x01\x02\x03\x04\x05\x06\x07\x09")  # 9 > block size
    with pytest.raises(PaddingError):
        unpad(b"abcdefg")  # misaligned


def test_cbc_roundtrip():
    plaintext = b"SyncFolderImage: {files: 42, segments: 99}"
    blob = encrypt_cbc(KEY, plaintext, IV)
    assert decrypt_cbc(KEY, blob) == plaintext


def test_cbc_output_contains_iv():
    blob = encrypt_cbc(KEY, b"data", IV)
    assert blob[:8] == IV


def test_cbc_ciphertext_differs_from_plaintext():
    plaintext = b"A" * 64
    blob = encrypt_cbc(KEY, plaintext, IV)
    assert plaintext not in blob


def test_cbc_equal_blocks_encrypt_differently():
    # CBC chaining: identical plaintext blocks yield distinct ciphertext.
    blob = encrypt_cbc(KEY, b"A" * 16, IV)
    body = blob[8:]
    assert body[0:8] != body[8:16]


def test_cbc_wrong_key_fails_or_garbles():
    plaintext = b"confidential metadata"
    blob = encrypt_cbc(KEY, plaintext, IV)
    try:
        got = decrypt_cbc(b"wrongkey", blob)
    except PaddingError:
        return
    assert got != plaintext


def test_cbc_iv_validation():
    with pytest.raises(ValueError):
        encrypt_cbc(KEY, b"data", b"short")


def test_cbc_blob_validation():
    with pytest.raises(PaddingError):
        decrypt_cbc(KEY, b"tooshort")
    with pytest.raises(PaddingError):
        decrypt_cbc(KEY, b"x" * 17)


@given(st.binary(min_size=0, max_size=256),
       st.binary(min_size=8, max_size=8),
       st.binary(min_size=8, max_size=8))
def test_cbc_roundtrip_property(plaintext, key, iv):
    blob = encrypt_cbc(key, plaintext, iv)
    assert decrypt_cbc(key, blob) == plaintext
    assert len(blob) % 8 == 0


def test_cbc_fips81_sample():
    """FIPS PUB 81, Table C1: the standard's own CBC example."""
    key = bytes.fromhex("0123456789abcdef")
    iv = bytes.fromhex("1234567890abcdef")
    plaintext = b"Now is the time for all "
    expected = bytes.fromhex(
        "e5c7cdde872bf27c" "43e934008c389c0f" "683788499a7c05f6"
    )
    blob = encrypt_cbc(key, plaintext, iv)
    assert blob[8:32] == expected
    assert scalar_encrypt_cbc(key, plaintext, iv)[8:32] == expected
    assert decrypt_cbc(key, blob) == plaintext


def test_cbc_decrypt_accepts_any_buffer():
    blob = encrypt_cbc(KEY, b"metadata" * 5, IV)
    assert decrypt_cbc(KEY, bytearray(blob)) == b"metadata" * 5
    assert decrypt_cbc(bytearray(KEY), memoryview(blob)) == b"metadata" * 5


def test_cbc_decrypt_runs_the_cipher_every_time(monkeypatch):
    """No plaintext is remembered below the caller: two identical calls
    are two trips through the block cipher."""
    calls = []
    real = DES.decrypt_blocks

    def counting(self, blocks):
        calls.append(len(blocks))
        return real(self, blocks)

    monkeypatch.setattr(DES, "decrypt_blocks", counting)
    blob = encrypt_cbc(KEY, b"x" * 20, IV)
    decrypt_cbc(KEY, blob)
    decrypt_cbc(KEY, blob)
    assert calls == [3, 3]


@settings(max_examples=60, deadline=None)
@given(
    st.binary(min_size=8, max_size=8),
    st.binary(min_size=8, max_size=8),
    st.binary(min_size=0, max_size=600),
    st.binary(min_size=8, max_size=8),
)
def test_cbc_vector_matches_scalar(key, other_key, plaintext, iv):
    """Right key: the plaintext.  Wrong key: the *same* garbage or the
    same PaddingError as decrypting one block at a time."""
    blob = encrypt_cbc(key, plaintext, iv)
    assert decrypt_cbc(key, blob) == plaintext
    assert outcome(decrypt_cbc, other_key, blob) \
        == outcome(scalar_decrypt_cbc, other_key, blob)
    # ... and a ciphertext nobody produced (truncated mid-chain).
    if len(blob) > 16:
        assert outcome(decrypt_cbc, key, blob[:-8]) \
            == outcome(scalar_decrypt_cbc, key, blob[:-8])


@settings(max_examples=40, deadline=None)
@given(
    st.binary(min_size=8, max_size=8),
    st.binary(min_size=8, max_size=8),
    st.one_of(st.integers(0, 40), st.sampled_from([1000, 3000])),
    st.integers(0, 7),
    st.integers(0, 2 ** 32 - 1),
)
def test_cbc_encrypt_matches_block_at_a_time(key, iv, n_blocks, extra, seed):
    """The IP-domain chain == IP, rounds, FP around every block, on 0 …
    3 000 blocks of arbitrary bytes under arbitrary keys and IVs."""
    plaintext = random.Random(seed).randbytes(8 * n_blocks + extra)
    assert encrypt_cbc(key, plaintext, iv) \
        == scalar_encrypt_cbc(key, plaintext, iv)
