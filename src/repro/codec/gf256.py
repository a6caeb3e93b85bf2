"""Arithmetic over GF(2^8).

The field is constructed from the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the conventional choice for
Reed-Solomon storage codes.  Scalar helpers operate on Python ints via
exp/log tables; vector helpers operate on ``numpy.uint8`` arrays via a
precomputed 256x256 product table (``MUL_TABLE``), so scalar-times-vector
is a single one-row gather — no log/exp double lookup and no special
handling of zero elements.

Two table families serve the vector kernels:

* ``MUL_TABLE`` — the full 256x256 product table; one row per scalar.
* ``pair_table(c1, c2)`` — a 65536-entry table over adjacent input-byte
  pairs: one gather evaluates ``c1*b1 ^ c2*b2``.

Native SIMD kernels (ISA-L, klauspost) split each multiply into two
16-entry nibble tables that live in registers.  Under numpy a gather
costs the same per element regardless of table size, so the production
matmul goes the other way — *fusing* coefficients into wider tables so
each gather retires more than one multiply (:func:`pair_table`, and the
packed output tables built in :mod:`repro.codec.matrix`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PRIMITIVE_POLY",
    "GENERATOR",
    "add",
    "sub",
    "mul",
    "div",
    "inv",
    "pow",
    "mul_vec",
    "addmul_vec",
    "pair_table",
    "EXP_TABLE",
    "LOG_TABLE",
    "MUL_TABLE",
]

PRIMITIVE_POLY = 0x11D
GENERATOR = 0x02


def _build_tables():
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    # Duplicate so that exp[a + b] never needs an explicit mod 255.
    exp[255:510] = exp[0:255]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()
_EXP = EXP_TABLE
_LOG = LOG_TABLE


def _build_mul_table():
    """The full 256x256 product table: ``MUL_TABLE[a, b] == a * b``.

    64 KiB of uint8 — row ``a`` maps every byte to its product with
    ``a``, so vector multiplication is ``MUL_TABLE[a][vec]``: one
    gather, zeros included (row 0 and column 0 are all zero).
    """
    table = np.zeros((256, 256), dtype=np.uint8)
    logs = _LOG[1:]
    table[1:, 1:] = _EXP[logs[:, None] + logs[None, :]]
    return table


MUL_TABLE = _build_mul_table()
_MUL = MUL_TABLE


def pair_table(c1: int, c2: int) -> np.ndarray:
    """The fused two-coefficient table ``T[(b2 << 8) | b1] = c1*b1 ^ c2*b2``.

    64 KiB of uint8 (L2-resident).  Indexing with the 16-bit
    concatenation of two adjacent input bytes evaluates two field
    multiplies and their XOR in a single gather — numpy's substitute
    for the register-resident nibble shuffles of native SIMD kernels,
    where the win comes from amortizing the per-element gather cost
    rather than shrinking the table.
    """
    return (_MUL[c2][:, None] ^ _MUL[c1][None, :]).reshape(-1)


def add(a: int, b: int) -> int:
    """Field addition (= subtraction = XOR)."""
    return a ^ b


def sub(a: int, b: int) -> int:
    """Field subtraction; identical to addition in characteristic 2."""
    return a ^ b


def mul(a: int, b: int) -> int:
    """Field multiplication via log/antilog tables."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[_LOG[a] + _LOG[b]])


def div(a: int, b: int) -> int:
    """Field division ``a / b``; raises ZeroDivisionError for b == 0."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(_EXP[(_LOG[a] - _LOG[b]) % 255])


def inv(a: int) -> int:
    """Multiplicative inverse; raises ZeroDivisionError for 0."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return int(_EXP[(255 - _LOG[a]) % 255])


def pow(a: int, n: int) -> int:  # noqa: A001 - deliberate field-local name
    """Field exponentiation ``a ** n`` (n may be negative if a != 0)."""
    if a == 0:
        if n < 0:
            raise ZeroDivisionError("zero has no inverse in GF(256)")
        return 1 if n == 0 else 0
    return int(_EXP[(_LOG[a] * n) % 255])


def mul_vec(scalar: int, vec: np.ndarray) -> np.ndarray:
    """Multiply every element of a uint8 vector by a field scalar.

    One gather through the scalar's ``MUL_TABLE`` row; zero elements
    need no fixup because the table row already maps 0 to 0.  The
    identity scalars short-circuit (0 -> zeros, 1 -> copy), and the
    gather lands directly in the result via ``np.take(..., out=)``
    instead of allocating through fancy indexing.
    """
    if scalar == 0:
        return np.zeros_like(vec)
    if scalar == 1:
        return vec.copy()
    out = np.empty_like(vec)
    np.take(_MUL[scalar], vec, out=out, mode="clip")
    return out


def addmul_vec(acc: np.ndarray, scalar: int, vec: np.ndarray) -> None:
    """In-place ``acc ^= scalar * vec`` over GF(256).

    Same shortcuts as :func:`mul_vec`; the product is gathered into a
    reused scratch buffer so the steady state allocates nothing.
    """
    global _ADDMUL_SCRATCH
    if scalar == 0:
        return
    if scalar == 1:
        np.bitwise_xor(acc, vec, out=acc)
        return
    if _ADDMUL_SCRATCH.size < vec.size:
        _ADDMUL_SCRATCH = np.empty(vec.size, dtype=np.uint8)
    scratch = _ADDMUL_SCRATCH[: vec.size]
    np.take(_MUL[scalar], vec, out=scratch, mode="clip")
    np.bitwise_xor(acc, scratch, out=acc)


_ADDMUL_SCRATCH = np.empty(1024, dtype=np.uint8)
