"""Gold-sequence scrambling from TS 38.211 section 5.2.1.

Every 5G physical channel whitens its bits with a length-31 Gold sequence
whose initial state ``c_init`` mixes channel- and UE-specific identifiers.
A sniffer that knows the cell ID and a UE's RNTI can regenerate the same
sequence, which is what makes passive PDCCH decoding possible once the
RACH process has revealed the C-RNTI.
"""

from __future__ import annotations

import numpy as np

#: Gold sequence warm-up offset Nc (38.211 section 5.2.1).
GOLD_NC = 1600

_SEQUENCE_CACHE: dict[int, np.ndarray] = {}
_CACHE_LIMIT = 4096

# LLR descrambling multiplies by (1 - 2*c) in {-1.0, +1.0}; the PDCCH
# blind-decode loop asks for the same (c_init, length) pair for every
# candidate at one aggregation level, so the float sign vector is cached
# separately from the bit sequence with hit/miss accounting.
_SIGN_CACHE: dict[tuple[int, int], np.ndarray] = {}
_SIGN_CACHE_HITS = 0
_SIGN_CACHE_MISSES = 0


class ScramblingError(ValueError):
    """Raised for invalid scrambling parameters."""


def gold_sequence(c_init: int, length: int) -> np.ndarray:
    """Generate ``length`` bits of the 3GPP length-31 Gold sequence.

    ``x1`` is seeded with 1, ``x2`` with ``c_init``; both advance with
    their fixed feedback taps and the output is their XOR after the
    ``Nc = 1600`` warm-up (38.211 section 5.2.1). Sequences are cached by
    ``c_init`` and grown on demand since the per-slot scrambler asks for
    the same seeds repeatedly.
    """
    if length < 0:
        raise ScramblingError(f"length must be non-negative, got {length}")
    if not 0 <= c_init < (1 << 31):
        raise ScramblingError(f"c_init out of 31-bit range: {c_init}")
    cached = _SEQUENCE_CACHE.get(c_init)
    if cached is not None and cached.size >= length:
        return cached[:length].copy()

    total = max(length, 1)
    # Generate x1 and x2 up to Nc + total using vectorized recurrences.
    n = GOLD_NC + total + 31
    x1 = np.zeros(n, dtype=np.uint8)
    x2 = np.zeros(n, dtype=np.uint8)
    x1[0] = 1
    for i in range(31):
        x2[i] = (c_init >> i) & 1
    for i in range(n - 31):
        x1[i + 31] = x1[i + 3] ^ x1[i]
        x2[i + 31] = x2[i + 3] ^ x2[i + 2] ^ x2[i + 1] ^ x2[i]
    seq = (x1[GOLD_NC:GOLD_NC + total] ^ x2[GOLD_NC:GOLD_NC + total])
    if len(_SEQUENCE_CACHE) < _CACHE_LIMIT:
        _SEQUENCE_CACHE[c_init] = seq
    return seq[:length].copy()


def pdcch_scrambling_init(n_id: int, n_rnti: int = 0) -> int:
    """``c_init`` for PDCCH bit scrambling (38.211 section 7.3.2.3).

    ``c_init = (n_rnti * 2^16 + n_id) mod 2^31`` where ``n_id`` is the
    ``pdcch-DMRS-ScramblingID`` (defaulting to the physical cell ID) and
    ``n_rnti`` is the C-RNTI for UE-specific search spaces, else 0.
    """
    if not 0 <= n_id < (1 << 16):
        raise ScramblingError(f"n_id out of range: {n_id}")
    if not 0 <= n_rnti < (1 << 16):
        raise ScramblingError(f"n_rnti out of range: {n_rnti}")
    return ((n_rnti << 16) + n_id) % (1 << 31)


def pdsch_scrambling_init(rnti: int, codeword: int, n_id: int) -> int:
    """``c_init`` for PDSCH bit scrambling (38.211 section 7.3.1.1)."""
    if codeword not in (0, 1):
        raise ScramblingError(f"codeword must be 0 or 1, got {codeword}")
    return ((rnti << 15) + (codeword << 14) + n_id) % (1 << 31)


def scramble_bits(bits: np.ndarray, c_init: int) -> np.ndarray:
    """XOR ``bits`` with the Gold sequence seeded by ``c_init``.

    Scrambling is an involution: calling this twice restores the input.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ScramblingError(f"expected 1-D bits, got shape {arr.shape}")
    return arr ^ gold_sequence(c_init, arr.size)


def descramble_signs(c_init: int, length: int) -> np.ndarray:
    """Float sign vector ``1 - 2*c`` for LLR descrambling, cached.

    Returned arrays are shared and read-only; the descramble itself
    (`llrs * signs`) allocates a fresh output.
    """
    global _SIGN_CACHE_HITS, _SIGN_CACHE_MISSES
    key = (c_init, length)
    cached = _SIGN_CACHE.get(key)
    if cached is not None:
        _SIGN_CACHE_HITS += 1
        return cached
    _SIGN_CACHE_MISSES += 1
    signs = 1.0 - 2.0 * gold_sequence(c_init, length).astype(np.float64)
    signs.setflags(write=False)
    if len(_SIGN_CACHE) < _CACHE_LIMIT:
        _SIGN_CACHE[key] = signs
    return signs


def descramble_llrs(llrs: np.ndarray, c_init: int) -> np.ndarray:
    """Flip LLR signs where the Gold sequence bit is 1.

    Accepts a 1-D LLR vector or a stacked ``(B, E)`` matrix whose rows
    share one ``c_init`` (broadcast over the last axis) — the batched
    PDCCH path descrambles all candidates of one search space at once.

    Layout: return (B, E) float64
    """
    arr = np.asarray(llrs, dtype=np.float64)
    return arr * descramble_signs(c_init, arr.shape[-1])


def sign_cache_stats() -> dict[str, int]:
    """Hit/miss counters for the descramble-sign cache (for tests)."""
    return {
        "hits": _SIGN_CACHE_HITS,
        "misses": _SIGN_CACHE_MISSES,
        "entries": len(_SIGN_CACHE),
    }


def clear_sequence_cache() -> None:
    """Drop all cached Gold sequences and descramble signs (for tests)."""
    global _SIGN_CACHE_HITS, _SIGN_CACHE_MISSES
    _SEQUENCE_CACHE.clear()
    _SIGN_CACHE.clear()
    _SIGN_CACHE_HITS = 0
    _SIGN_CACHE_MISSES = 0
