"""Metadata encryption substrate: DES (FIPS 46-3) in counter mode under a
keyed synthetic IV."""

from .des import BLOCK_SIZE, DES
from .modes import (
    PaddingError,
    SyntheticIVError,
    decrypt_cbc,
    encrypt_cbc,
    pad,
    synthetic_iv,
    unpad,
)

__all__ = [
    "BLOCK_SIZE",
    "DES",
    "PaddingError",
    "SyntheticIVError",
    "decrypt_cbc",
    "encrypt_cbc",
    "pad",
    "synthetic_iv",
    "unpad",
]
