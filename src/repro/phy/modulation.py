"""Constellation mapping and soft demapping (TS 38.211 section 5.1).

The PDCCH is always QPSK; the PDSCH uses QPSK through 256-QAM selected by
the MCS index.  The demapper produces log-likelihood ratios (positive LLR
means the bit is more likely 0, matching the convention in the polar
decoder), which is what lets decode failures emerge from channel noise
rather than from an arbitrary error model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ModulationError(ValueError):
    """Raised for unknown schemes or malformed inputs."""


@dataclass(frozen=True)
class ModulationScheme:
    """A named constellation with its order ``Qm`` (bits per symbol)."""

    name: str
    bits_per_symbol: int


BPSK = ModulationScheme("BPSK", 1)
QPSK = ModulationScheme("QPSK", 2)
QAM16 = ModulationScheme("16QAM", 4)
QAM64 = ModulationScheme("64QAM", 6)
QAM256 = ModulationScheme("256QAM", 8)

SCHEMES = {s.name: s for s in (BPSK, QPSK, QAM16, QAM64, QAM256)}

#: Unit-energy normalisation per modulation order (38.211 section 5.1).
_NORMALIZERS = {1: np.sqrt(2.0), 2: np.sqrt(2.0), 4: np.sqrt(10.0),
                6: np.sqrt(42.0), 8: np.sqrt(170.0)}


def _scheme(modulation: str | ModulationScheme) -> ModulationScheme:
    if isinstance(modulation, ModulationScheme):
        return modulation
    if modulation not in SCHEMES:
        raise ModulationError(f"unknown modulation: {modulation!r}")
    return SCHEMES[modulation]


def _axis_amplitude(axis_bits: list[int]) -> float:
    """PAM amplitude for one I/Q axis per the explicit 38.211 formulas.

    ``axis_bits`` are the bits feeding this axis in transmission order,
    e.g. ``[b0, b2, b4]`` for the I axis of 64QAM. The recursive pattern
    ``(1-2b)(2^k - inner)`` is exactly the standard's nesting.
    """
    sign = 1 - 2 * axis_bits[0]
    if len(axis_bits) == 1:
        return float(sign)
    inner = _axis_amplitude(axis_bits[1:])
    return float(sign * ((1 << (len(axis_bits) - 1)) - inner))


def _build_constellation(qm: int) -> np.ndarray:
    """Complex constellation points indexed by the Qm-bit symbol value."""
    norm = _NORMALIZERS[qm]
    if qm == 1:
        return np.array([(1 + 1j), -(1 + 1j)]) / np.sqrt(2.0)
    half = qm // 2
    points = np.zeros(1 << qm, dtype=np.complex128)
    for value in range(1 << qm):
        bits = [(value >> (qm - 1 - k)) & 1 for k in range(qm)]
        # 38.211 interleaves: even-index bits drive I, odd-index bits Q.
        i_amp = _axis_amplitude(bits[0::2][:half])
        q_amp = _axis_amplitude(bits[1::2][:half])
        points[value] = (i_amp + 1j * q_amp) / norm
    return points


_CONSTELLATIONS: dict[int, np.ndarray] = {}


def constellation(modulation: str | ModulationScheme) -> np.ndarray:
    """Return (and cache) the unit-energy constellation for a scheme."""
    scheme = _scheme(modulation)
    qm = scheme.bits_per_symbol
    if qm not in _CONSTELLATIONS:
        _CONSTELLATIONS[qm] = _build_constellation(qm)
    return _CONSTELLATIONS[qm]


def modulate(bits: np.ndarray, modulation: str | ModulationScheme) -> np.ndarray:
    """Map a bit array onto complex symbols (unit average energy)."""
    scheme = _scheme(modulation)
    arr = np.asarray(bits, dtype=np.uint8)
    qm = scheme.bits_per_symbol
    if arr.size % qm:
        raise ModulationError(
            f"bit count {arr.size} not a multiple of Qm={qm}")
    groups = arr.reshape(-1, qm)
    weights = 1 << np.arange(qm - 1, -1, -1)
    values = groups @ weights
    return constellation(scheme)[values]


def demodulate_soft(symbols: np.ndarray, modulation: str | ModulationScheme,
                    noise_var: float) -> np.ndarray:
    """Max-log LLRs for each transmitted bit; positive favours bit=0.

    Uses the exact max-log approximation over the full constellation,
    which is fast enough at PDCCH scale (QPSK) and exercised by tests for
    the higher orders used on the PDSCH model.

    Layout: symbols (S) complex128
    Layout: return (E) float64
    """
    scheme = _scheme(modulation)
    qm = scheme.bits_per_symbol
    syms = np.asarray(symbols, dtype=np.complex128).ravel()
    if noise_var <= 0:
        raise ModulationError(f"noise variance must be positive: {noise_var}")
    points = constellation(scheme)
    # distances: (n_symbols, n_points)
    d2 = np.abs(syms[:, None] - points[None, :]) ** 2
    llrs = np.zeros((syms.size, qm), dtype=np.float64)
    values = np.arange(points.size)
    for b in range(qm):
        bit = (values >> (qm - 1 - b)) & 1
        d0 = d2[:, bit == 0].min(axis=1)
        d1 = d2[:, bit == 1].min(axis=1)
        llrs[:, b] = (d1 - d0) / noise_var
    return llrs.ravel()


def demodulate_soft_batch(symbols: np.ndarray,
                          modulation: str | ModulationScheme,
                          noise_var: float) -> np.ndarray:
    """Max-log LLRs for a stacked ``(B, n_symbols)`` symbol matrix.

    Returns a ``(B, n_symbols * Qm)`` LLR matrix. The demapper is
    elementwise over symbols, so this is exactly
    :func:`demodulate_soft` applied per row (flatten, demap once,
    reshape) — bit-identical, but one numpy dispatch for the whole
    candidate batch instead of one per candidate.  QPSK goes through
    :func:`demodulate_qpsk`, the same LLRs from pairwise minima.

    Layout: symbols (B, S) complex128
    Layout: return (B, E) float64
    """
    scheme = _scheme(modulation)
    arr = np.asarray(symbols, dtype=np.complex128)
    if arr.ndim != 2:
        raise ModulationError(
            f"expected a (B, n_symbols) matrix, got shape {arr.shape}")
    batch, n_symbols = arr.shape
    qm = scheme.bits_per_symbol
    if batch == 0:
        return np.zeros((0, n_symbols * qm), dtype=np.float64)
    if scheme == QPSK:
        flat = demodulate_qpsk(arr.reshape(-1), noise_var)
    else:
        flat = demodulate_soft(arr.reshape(-1), scheme, noise_var)
    return flat.reshape(batch, n_symbols * qm)


def demodulate_qpsk(symbols: np.ndarray, noise_var: float) -> np.ndarray:
    """:func:`demodulate_soft` for QPSK, bit for bit, at half the cost.

    Same squared distances to the four points, but each bit's two
    minima are pairwise ``np.minimum`` of distance rows (symbol value
    ``2 * b0 + b1``: b0 splits the points {0, 1} from {2, 3}, b1 {0, 2}
    from {1, 3}) instead of masked column copies and row reductions.

    Layout: symbols (S) complex128
    Layout: return (E) float64
    """
    syms = np.asarray(symbols, dtype=np.complex128).ravel()
    if noise_var <= 0:
        raise ModulationError(f"noise variance must be positive: {noise_var}")
    # One point at a time keeps each temporary a symbol row long (a
    # window's 6-8k symbols stay in cache), with the same elementwise
    # operations as a (4, S) distance matrix.
    d0, d1, d2, d3 = (np.abs(syms - point) ** 2
                      for point in constellation(QPSK))
    llrs = np.empty((syms.size, 2), dtype=np.float64)
    np.subtract(np.minimum(d2, d3), np.minimum(d0, d1), out=llrs[:, 0])
    np.subtract(np.minimum(d1, d3), np.minimum(d0, d2), out=llrs[:, 1])
    llrs /= noise_var
    return llrs.ravel()


def demodulate_hard(symbols: np.ndarray,
                    modulation: str | ModulationScheme) -> np.ndarray:
    """Nearest-point hard decisions, returned as a flat bit array."""
    scheme = _scheme(modulation)
    qm = scheme.bits_per_symbol
    syms = np.asarray(symbols, dtype=np.complex128).ravel()
    points = constellation(scheme)
    nearest = np.abs(syms[:, None] - points[None, :]).argmin(axis=1)
    bits = ((nearest[:, None] >> np.arange(qm - 1, -1, -1)) & 1)
    return bits.astype(np.uint8).ravel()
