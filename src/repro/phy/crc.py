"""Cyclic redundancy checks from TS 38.212 section 5.1.

5G NR uses six generator polynomials. NR-Scope leans on two of them:

* ``CRC24C`` protects DCI payloads on the PDCCH.  The gNB scrambles
  (XORs) the final 16 CRC bits with the target UE's RNTI, which is both
  how a UE addresses its DCIs and how a sniffer recovers C-RNTIs from
  RACH MSG 4 (paper section 3.1.2).
* ``CRC24A`` protects transport blocks on the PDSCH, which lets the
  sniffer verify decoded RRC messages.

Bits are processed most-significant first, matching the standard's
``a_0..a_{A-1}`` ordering. All functions accept and return numpy uint8
arrays of 0/1 values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.constants import MAX_RNTI

#: Generator polynomials, MSB (x^L term) excluded, from 38.212 section 5.1.
POLYNOMIALS = {
    "crc24a": (24, 0x864CFB),
    "crc24b": (24, 0x800063),
    "crc24c": (24, 0xB2B117),
    "crc16": (16, 0x1021),
    "crc11": (11, 0x621),
    "crc6": (6, 0x21),
}


class CrcError(ValueError):
    """Raised for unknown CRC names or malformed bit arrays."""


def _as_bits(bits: np.ndarray | list[int]) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise CrcError(f"expected a 1-D bit array, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise CrcError("bit array contains values other than 0/1")
    return arr


def crc_remainder(bits: np.ndarray | list[int], name: str) -> np.ndarray:
    """Compute the CRC remainder of ``bits`` under polynomial ``name``.

    Returns the ``L`` parity bits ``p_0..p_{L-1}`` (MSB first) that
    38.212 appends to the input block.

    Layout: return (L) uint8
    """
    if name not in POLYNOMIALS:
        raise CrcError(f"unknown CRC: {name!r}")
    length, poly = POLYNOMIALS[name]
    arr = _as_bits(bits)
    reg = 0
    mask = (1 << length) - 1
    for bit in arr:
        feedback = ((reg >> (length - 1)) & 1) ^ int(bit)
        reg = ((reg << 1) & mask)
        if feedback:
            reg ^= poly
    out = np.zeros(length, dtype=np.uint8)
    for i in range(length):
        out[i] = (reg >> (length - 1 - i)) & 1
    return out


@lru_cache(maxsize=64)
def crc_generator_matrix(n_bits: int, name: str) -> np.ndarray:
    """GF(2) generator matrix ``M`` with ``crc_remainder(x) == x @ M % 2``.

    The 38.212 CRC registers start from all zeros, so the remainder is a
    linear map over GF(2); column-by-column simulation of unit vectors
    yields an ``(n_bits, L)`` matrix that computes the same parity bits
    as the serial LFSR for *any* input block of that length.  Cached per
    block length so batched checks pay the simulation once.
    """
    if name not in POLYNOMIALS:
        raise CrcError(f"unknown CRC: {name!r}")
    if n_bits < 0:
        raise CrcError(f"negative block length: {n_bits}")
    length, _ = POLYNOMIALS[name]
    matrix = np.zeros((n_bits, length), dtype=np.uint8)
    unit = np.zeros(n_bits, dtype=np.uint8)
    for i in range(n_bits):
        unit[i] = 1
        matrix[i] = crc_remainder(unit, name)
        unit[i] = 0
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=64)
def crc_terms(n_bits: int, name: str) -> np.ndarray:
    """The rows of :func:`crc_generator_matrix` as integers, MSB first.

    The parity of an ``n_bits`` block is the XOR of the terms at its set
    bits, so one reduction replaces a GF(2) matrix product.  Read-only
    int64, cached per block length.
    """
    matrix = crc_generator_matrix(n_bits, name)
    length, _ = POLYNOMIALS[name]
    weights = 1 << np.arange(length - 1, -1, -1, dtype=np.int64)
    terms = matrix.astype(np.int64) @ weights
    terms.setflags(write=False)
    return terms


def crc_remainder_batch(bits: np.ndarray, name: str) -> np.ndarray:
    """Row-wise :func:`crc_remainder` over a ``(batch, n_bits)`` matrix.

    One XOR reduction over the cached :func:`crc_terms` replaces
    ``batch`` serial LFSR walks; the result is bit-identical to calling
    :func:`crc_remainder` per row.

    Layout: bits (B, n) uint8
    Layout: return (B, L) uint8
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 2:
        raise CrcError(f"expected a 2-D bit matrix, got shape {arr.shape}")
    terms = crc_terms(arr.shape[1], name)
    length, _ = POLYNOMIALS[name]
    values = np.bitwise_xor.reduce(arr * terms, axis=1)
    shifts = np.arange(length - 1, -1, -1, dtype=np.int64)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8)


def crc_parity(bits: np.ndarray, name: str) -> np.ndarray:
    """:func:`crc_remainder` of one block from the cached generator
    matrix (bit-identical; the LFSR only builds the matrix, once per
    block length).

    Layout: bits (n) uint8
    Layout: return (L) uint8
    """
    return crc_remainder_batch(_as_bits(bits)[None, :], name)[0]


def crc_attach(bits: np.ndarray | list[int], name: str) -> np.ndarray:
    """Append the CRC parity bits to ``bits``."""
    arr = _as_bits(bits)
    return np.concatenate([arr, crc_remainder(arr, name)])


def crc_check(bits_with_crc: np.ndarray | list[int], name: str) -> bool:
    """Return True when the trailing CRC of ``bits_with_crc`` is consistent."""
    if name not in POLYNOMIALS:
        raise CrcError(f"unknown CRC: {name!r}")
    length, _ = POLYNOMIALS[name]
    arr = _as_bits(bits_with_crc)
    if arr.size < length:
        raise CrcError(f"block shorter than its {length}-bit CRC")
    payload, received = arr[:-length], arr[-length:]
    return bool(np.array_equal(crc_remainder(payload, name), received))


def rnti_to_bits(rnti: int) -> np.ndarray:
    """16-bit MSB-first representation of an RNTI."""
    if not 0 <= rnti <= MAX_RNTI:
        raise CrcError(f"RNTI out of 16-bit range: {rnti}")
    return np.array([(rnti >> (15 - i)) & 1 for i in range(16)], dtype=np.uint8)


def bits_to_rnti(bits: np.ndarray | list[int]) -> int:
    """Inverse of :func:`rnti_to_bits`."""
    arr = _as_bits(bits)
    if arr.size != 16:
        raise CrcError(f"RNTI bit field must be 16 bits, got {arr.size}")
    value = 0
    for bit in arr:
        value = (value << 1) | int(bit)
    return value


def scramble_crc_with_rnti(bits_with_crc: np.ndarray, rnti: int,
                           name: str = "crc24c") -> np.ndarray:
    """XOR the last 16 CRC bits with the RNTI (38.212 section 7.3.2).

    The operation is an involution: applying it twice restores the input,
    which is exactly the property NR-Scope exploits to recover a C-RNTI
    from a RACH MSG 4 DCI (it computes the CRC of the received plaintext
    and XORs it against the received, RNTI-scrambled CRC).
    """
    length, _ = POLYNOMIALS[name]
    arr = _as_bits(bits_with_crc).copy()
    if arr.size < length:
        raise CrcError(f"block shorter than its {length}-bit CRC")
    arr[-16:] ^= rnti_to_bits(rnti)
    return arr


def recover_rnti(received_with_crc: np.ndarray,
                 name: str = "crc24c") -> int | None:
    """Recover the scrambling RNTI from a received DCI block.

    Computes the expected CRC over the payload and XORs its last 16 bits
    with the received CRC's last 16 bits; if the leading CRC bits (which
    the RNTI mask does not cover) also match, the XOR *is* the RNTI.
    Returns None when the unmasked CRC bits disagree, meaning the block
    was corrupted rather than merely RNTI-scrambled.
    """
    length, _ = POLYNOMIALS[name]
    arr = _as_bits(received_with_crc)
    if arr.size < length:
        raise CrcError(f"block shorter than its {length}-bit CRC")
    payload, received = arr[:-length], arr[-length:]
    expected = crc_remainder(payload, name)
    if not np.array_equal(expected[:-16], received[:-16]):
        return None
    return bits_to_rnti(expected[-16:] ^ received[-16:])
