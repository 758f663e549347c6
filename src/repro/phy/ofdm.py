"""OFDM modulation between resource grids and time-domain IQ samples.

This is the boundary the paper's USRP sits on: the gNB's grid becomes
baseband samples, the radio medium perturbs them, and NR-Scope's front end
FFTs each symbol back onto subcarriers (the "major computational cost"
discussed in paper section 4).  A normal cyclic prefix is used with a
uniform length per symbol; the standard's slightly longer first-symbol CP
only matters for timing alignment, which the simulated receiver gets from
the frame synchronizer for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import N_SYMBOLS_PER_SLOT
from repro.phy.resource_grid import ResourceGrid


class OfdmError(ValueError):
    """Raised for inconsistent sample geometry."""


def fft_size_for(n_subcarriers: int) -> int:
    """Smallest power-of-two FFT that holds the active subcarriers."""
    if n_subcarriers < 1:
        raise OfdmError(f"need at least one subcarrier: {n_subcarriers}")
    size = 64
    while size < n_subcarriers:
        size *= 2
    return size


@dataclass(frozen=True)
class OfdmConfig:
    """Geometry of the OFDM waveform for one carrier."""

    n_subcarriers: int
    fft_size: int
    cp_len: int

    @classmethod
    def for_grid(cls, n_subcarriers: int,
                 cp_fraction: float = 0.07) -> "OfdmConfig":
        """Derive the FFT/CP geometry for a carrier width."""
        fft = fft_size_for(n_subcarriers)
        return cls(n_subcarriers=n_subcarriers, fft_size=fft,
                   cp_len=max(1, int(round(fft * cp_fraction))))

    @property
    def samples_per_symbol(self) -> int:
        """Time samples per OFDM symbol including its cyclic prefix."""
        return self.fft_size + self.cp_len

    @property
    def samples_per_slot(self) -> int:
        """Time samples in one 14-symbol slot."""
        return self.samples_per_symbol * N_SYMBOLS_PER_SLOT


def modulate_slot(grid: ResourceGrid, config: OfdmConfig) -> np.ndarray:
    """Turn a resource grid into one slot of baseband IQ samples."""
    if grid.n_subcarriers != config.n_subcarriers:
        raise OfdmError(
            f"grid has {grid.n_subcarriers} subcarriers, config expects"
            f" {config.n_subcarriers}")
    n_sc, fft = config.n_subcarriers, config.fft_size
    spectrum = np.zeros((fft, N_SYMBOLS_PER_SLOT), dtype=np.complex128)
    # Centre the active subcarriers on DC, matching NR's grid placement:
    # negative-frequency half first, then positive.
    half = n_sc // 2
    spectrum[fft - half:, :] = grid.data[:half, :]
    spectrum[:n_sc - half, :] = grid.data[half:, :]
    time_symbols = np.fft.ifft(spectrum, axis=0) * np.sqrt(fft)
    out = np.empty(config.samples_per_slot, dtype=np.complex128)
    sps = config.samples_per_symbol
    for sym in range(N_SYMBOLS_PER_SLOT):
        body = time_symbols[:, sym]
        start = sym * sps
        out[start:start + config.cp_len] = body[-config.cp_len:]
        out[start + config.cp_len:start + sps] = body
    return out


def demodulate_slot(samples: np.ndarray, config: OfdmConfig) -> ResourceGrid:
    """Recover a resource grid from one slot of IQ samples.

    The inverse of :func:`modulate_slot` under perfect timing.
    """
    arr = np.asarray(samples, dtype=np.complex128).ravel()
    if arr.size != config.samples_per_slot:
        raise OfdmError(
            f"expected {config.samples_per_slot} samples, got {arr.size}")
    n_sc, fft = config.n_subcarriers, config.fft_size
    sps = config.samples_per_symbol
    bodies = np.empty((fft, N_SYMBOLS_PER_SLOT), dtype=np.complex128)
    for sym in range(N_SYMBOLS_PER_SLOT):
        start = sym * sps + config.cp_len
        bodies[:, sym] = arr[start:start + fft]
    spectrum = np.fft.fft(bodies, axis=0) / np.sqrt(fft)
    grid = ResourceGrid(n_prb=n_sc // 12)
    half = n_sc // 2
    grid.data[:half, :] = spectrum[fft - half:, :]
    grid.data[half:, :] = spectrum[:n_sc - half, :]
    return grid
