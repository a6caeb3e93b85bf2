"""Tests for counter mode under a synthetic IV, and PKCS#5 padding."""

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    DES,
    PaddingError,
    SyntheticIVError,
    decrypt_cbc,
    encrypt_cbc,
    modes,
    pad,
    synthetic_iv,
    unpad,
)
from textbook_des import seal as textbook_seal

KEY = b"metakey1"
IV = b"\x00\x01\x02\x03\x04\x05\x06\x07"

#: Wire format v2, pinned: this key and plaintext seal to exactly this
#: blob (the textbook reference agrees).  If it moves, every metadata
#: file already in a cloud stops decoding.
KNOWN_PLAINTEXT = b"UniDrive metadata, wire format v2"
KNOWN_BLOB = bytes.fromhex(
    "18dea7116c7284ed" "fa2aa340cc8b482e" "1c3dbc23cb11e7dc"
    "f2ecf172f9b338e0" "47e36e7da49fc9db" "d240a621d472036e"
)


def sealed(key, plaintext):
    return encrypt_cbc(key, plaintext, synthetic_iv(key, plaintext))


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
    assert decrypt_cbc(KEY, sealed(KEY, plaintext)) == plaintext


def test_cbc_output_contains_iv():
    blob = encrypt_cbc(KEY, b"data", IV)
    assert blob[:8] == IV
    assert sealed(KEY, b"data")[:8] == synthetic_iv(KEY, b"data")


def test_cbc_ciphertext_differs_from_plaintext():
    plaintext = b"A" * 64
    blob = sealed(KEY, plaintext)
    assert plaintext not in blob


def test_cbc_equal_blocks_encrypt_differently():
    # Each block has its own counter: identical plaintext blocks yield
    # distinct ciphertext.
    blob = sealed(KEY, b"A" * 16)
    body = blob[8:]
    assert body[0:8] != body[8:16]


def test_cbc_wrong_key_fails_or_garbles():
    # Under the synthetic IV, the wrong key never garbles: it fails.
    blob = sealed(KEY, b"confidential metadata")
    with pytest.raises((PaddingError, SyntheticIVError)):
        decrypt_cbc(b"wrongkey", blob)


def test_cbc_iv_validation():
    with pytest.raises(ValueError):
        encrypt_cbc(KEY, b"data", b"short")


def test_cbc_blob_validation():
    with pytest.raises(PaddingError):
        decrypt_cbc(KEY, b"tooshort")
    with pytest.raises(PaddingError):
        decrypt_cbc(KEY, b"x" * 17)


@given(st.binary(min_size=0, max_size=256),
       st.binary(min_size=8, max_size=8))
def test_cbc_roundtrip_property(plaintext, key):
    blob = sealed(key, plaintext)
    assert decrypt_cbc(key, blob) == plaintext
    assert len(blob) == 8 * (len(plaintext) // 8 + 2)


def test_cbc_decrypt_accepts_any_buffer():
    blob = sealed(KEY, b"metadata" * 5)
    assert decrypt_cbc(KEY, bytearray(blob)) == b"metadata" * 5
    assert decrypt_cbc(bytearray(KEY), memoryview(blob)) == b"metadata" * 5


def test_cbc_decrypt_runs_the_cipher_every_time(monkeypatch):
    """No plaintext is remembered below the caller: a seal and two
    identical opens are three trips through the one vector kernel."""
    calls = []
    real = DES.encrypt_blocks

    def counting(self, blocks):
        calls.append(len(blocks))
        return real(self, blocks)

    monkeypatch.setattr(DES, "encrypt_blocks", counting)
    blob = sealed(KEY, b"x" * 20)
    decrypt_cbc(KEY, blob)
    decrypt_cbc(KEY, blob)
    assert calls == [3, 3, 3]


@settings(max_examples=16, deadline=None)
@given(
    st.binary(min_size=8, max_size=8),
    st.integers(0, 255),
    st.one_of(st.integers(0, 64), st.integers(65, 3000)),
    st.integers(0, 7),
    st.integers(0, 2 ** 32 - 1),
)
def test_cbc_encrypt_matches_block_at_a_time(key, parity, n_blocks, extra,
                                             seed):
    """Seal and open == counter mode one block at a time through the
    textbook cipher, on 0 … 3 000 blocks of arbitrary bytes, under
    arbitrary keys with arbitrary parity bits."""
    plaintext = random.Random(seed).randbytes(8 * n_blocks + extra)
    blob = sealed(key, plaintext)
    assert blob == textbook_seal(key, plaintext)
    assert decrypt_cbc(key, blob) == plaintext
    # DES ignores parity bits; the keyed IV does not.
    variant = bytes(b ^ (parity >> i & 1) for i, b in enumerate(key))
    assert encrypt_cbc(variant, plaintext, blob[:8]) == blob


def test_counter_wraps_mod_2_64(monkeypatch):
    iv = (2 ** 64 - 16).to_bytes(8, "big")
    plaintext = bytes(range(256))[:8 * 39 + 5]  # 40 padded blocks
    blob = encrypt_cbc(KEY, plaintext, iv)
    assert blob == textbook_seal(KEY, plaintext, iv)
    # Opening runs the same counter: let the reader expect this IV.
    monkeypatch.setattr(modes, "synthetic_iv", lambda key, data: iv)
    assert decrypt_cbc(KEY, blob) == plaintext


def test_v2_known_answer_blob():
    assert sealed(KEY, KNOWN_PLAINTEXT) == KNOWN_BLOB
    assert textbook_seal(KEY, KNOWN_PLAINTEXT) == KNOWN_BLOB
    assert decrypt_cbc(KEY, KNOWN_BLOB) == KNOWN_PLAINTEXT


def test_synthetic_iv_is_keyed():
    """HMAC-SHA1 under the key, not a public digest a cloud could check
    a guessed plaintext against."""
    plaintext = b'{"files":{}}'
    assert synthetic_iv(KEY, plaintext) \
        == hmac.new(KEY, plaintext, hashlib.sha1).digest()[:8]
    assert synthetic_iv(KEY, plaintext) \
        != hashlib.sha1(plaintext).digest()[:8]
    assert synthetic_iv(KEY, plaintext) != synthetic_iv(b"otherkey", plaintext)


def test_blob_under_another_iv_is_rejected():
    blob = encrypt_cbc(KEY, b"metadata", IV)
    with pytest.raises(SyntheticIVError) as caught:
        decrypt_cbc(KEY, blob)
    assert isinstance(caught.value, ValueError)
