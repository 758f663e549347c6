"""Calibrated PDCCH decode-failure model for message-fidelity runs.

In ``iq`` fidelity NR-Scope really polar-decodes every candidate, so DCI
misses fall out of channel noise.  Message fidelity needs the same
behaviour without per-slot signal processing, so this module carries a
BLER table *measured from this repository's own PDCCH chain* (CRC24C +
polar SC decode + QPSK over AWGN, K = 70 bits, E = 108 x AL, 200 Monte
Carlo trials per point — see tests/core/test_decode_model.py, which
re-derives spot values from the live chain).

Interpolation is linear in SNR between grid points and saturates at the
table edges.  A session's sniffer SNR is fixed, so both BLER lookups
are memoized: each (SNR, level) pair interpolates once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: SNR grid (dB) of the calibration sweep.
SNR_GRID_DB = np.arange(-10.0, 13.0, 1.0)

#: BLER per aggregation level over SNR_GRID_DB, measured from the real
#: encode/decode chain (see module docstring).
BLER_TABLE: dict[int, tuple[float, ...]] = {
    1: (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.99, 0.97, 0.905,
        0.65, 0.35, 0.1, 0.03, 0.005, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    2: (1.0, 1.0, 1.0, 1.0, 1.0, 0.995, 0.995, 0.93, 0.825, 0.395, 0.155,
        0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    4: (1.0, 1.0, 1.0, 0.98, 0.93, 0.78, 0.48, 0.15, 0.035, 0.015, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    8: (0.975, 0.87, 0.585, 0.255, 0.03, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}

#: Residual miss probability at high SNR: even on a clean bench the real
#: tool misses a small fraction of DCIs to timing jitter, AGC transients
#: and worker overruns (paper Fig 7 shows 0.3-0.9% at lab SNR).
RESIDUAL_MISS = 0.002


class DecodeModelError(ValueError):
    """Raised for unknown aggregation levels."""


@lru_cache(maxsize=256)
def pdcch_bler(snr_db: float, aggregation_level: int) -> float:
    """Probability this DCI decode fails at the sniffer.

    Linear interpolation of the calibrated table plus the residual
    system-level miss floor.  Memoized; an unknown level raises on
    every call.
    """
    if aggregation_level not in BLER_TABLE:
        raise DecodeModelError(
            f"no calibration for aggregation level {aggregation_level}")
    curve = np.asarray(BLER_TABLE[aggregation_level])
    coded = float(np.interp(snr_db, SNR_GRID_DB, curve))
    return min(1.0, coded + RESIDUAL_MISS * (1.0 - coded))


def decode_succeeds(snr_db: float, aggregation_level: int,
                    rng: np.random.Generator) -> bool:
    """Bernoulli draw from the calibrated failure probability."""
    return bool(rng.random() >= pdcch_bler(snr_db, aggregation_level))


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 output step (the reference finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def counter_fold(state: int, *fields: int) -> int:
    """Counter-based keying: fold key fields into a 64-bit state, no
    generator.

    A decode decision keyed on (seed, slot, rnti, cce, ...) is the same
    no matter when or in which order it is evaluated — the property the
    slot runtime's windowed DCI stage needs to decode a slot late.
    Each field is folded through splitmix64 so nearby keys
    (consecutive slots, adjacent CCEs) decorrelate.  A key is folded
    from state 0, and keys sharing a prefix can fold it once:
    ``counter_fold(counter_fold(0, *a), *b) == counter_fold(0, *a, *b)``.
    """
    for value in fields:
        state = _splitmix64(state ^ (int(value) & _MASK64))
    return state


def counter_uniform_at(state: int) -> float:
    """The uniform in [0, 1) of a folded key (:func:`counter_fold`)."""
    return _splitmix64(state) / float(1 << 64)


#: BLER of the (32, 11) UCI small-block code under ML decoding,
#: measured from repro.phy.uci with 300 trials per point (same
#: methodology as the PDCCH table; spot-checked by the tests).
UCI_SNR_GRID_DB = np.arange(-10.0, 7.0, 1.0)
UCI_BLER = (0.947, 0.947, 0.91, 0.813, 0.737, 0.703, 0.56, 0.42, 0.277,
            0.13, 0.057, 0.027, 0.003, 0.0, 0.0, 0.0, 0.0)


@lru_cache(maxsize=256)
def uci_bler(snr_db: float) -> float:
    """Decode-failure probability for an 11-bit UCI report (memoized)."""
    coded = float(np.interp(snr_db, UCI_SNR_GRID_DB, UCI_BLER))
    return min(1.0, coded + RESIDUAL_MISS * (1.0 - coded))


def uci_decode_succeeds(snr_db: float,
                        rng: np.random.Generator) -> bool:
    """Bernoulli draw for one sniffed UCI report."""
    return bool(rng.random() >= uci_bler(snr_db))
