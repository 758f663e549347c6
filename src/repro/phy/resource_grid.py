"""The per-slot resource grid: PRBs x OFDM symbols of resource elements.

Both ends of the simulation meet here: the gNB writes PDCCH/PDSCH symbols
into a grid, the OFDM layer turns it into time-domain samples, and
NR-Scope's decoder reads candidate REs back out of the grid it recovered.
The grid also powers the paper's REG-accounting evaluation (Fig 8): REGs
are counted from actual occupancy, not from bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import N_SC_PER_PRB, N_SYMBOLS_PER_SLOT


class GridError(ValueError):
    """Raised for out-of-grid writes or shape mismatches."""


@dataclass
class ResourceGrid:
    """One slot of resource elements for a carrier of ``n_prb`` PRBs.

    ``data`` is indexed ``[subcarrier, symbol]``; ``occupancy`` tracks
    which channel wrote each RE (0 = empty), enabling REG counting and
    spare-capacity accounting without re-demodulating anything.
    """

    n_prb: int
    data: np.ndarray = field(init=False, repr=False)
    occupancy: np.ndarray = field(init=False, repr=False)

    #: Occupancy codes, by writer.
    EMPTY = 0
    PDCCH = 1
    PDSCH = 2
    DMRS = 3
    BROADCAST = 4

    def __post_init__(self) -> None:
        if self.n_prb < 1:
            raise GridError(f"PRB count must be positive: {self.n_prb}")
        shape = (self.n_prb * N_SC_PER_PRB, N_SYMBOLS_PER_SLOT)
        self.data = np.zeros(shape, dtype=np.complex128)
        self.occupancy = np.zeros(shape, dtype=np.uint8)

    @property
    def n_subcarriers(self) -> int:
        """Total active subcarriers across the carrier."""
        return self.n_prb * N_SC_PER_PRB

    def _check_prb_range(self, first_prb: int, n_prb: int) -> None:
        if first_prb < 0 or n_prb < 1 or first_prb + n_prb > self.n_prb:
            raise GridError(
                f"PRB range [{first_prb}, +{n_prb}) outside carrier of"
                f" {self.n_prb}")

    def write_res(self, prb: int, symbol: int, symbols: np.ndarray,
                  kind: int, first_sc: int = 0) -> None:
        """Write consecutive REs of one PRB/symbol starting at ``first_sc``."""
        self._check_prb_range(prb, 1)
        if not 0 <= symbol < N_SYMBOLS_PER_SLOT:
            raise GridError(f"symbol index out of range: {symbol}")
        values = np.asarray(symbols, dtype=np.complex128).ravel()
        base = prb * N_SC_PER_PRB + first_sc
        if first_sc < 0 or first_sc + values.size > N_SC_PER_PRB:
            raise GridError("write exceeds one PRB")
        self.data[base:base + values.size, symbol] = values
        self.occupancy[base:base + values.size, symbol] = kind

    def read_res(self, prb: int, symbol: int, count: int,
                 first_sc: int = 0) -> np.ndarray:
        """Read consecutive REs of one PRB/symbol."""
        self._check_prb_range(prb, 1)
        base = prb * N_SC_PER_PRB + first_sc
        if first_sc < 0 or first_sc + count > N_SC_PER_PRB:
            raise GridError("read exceeds one PRB")
        return self.data[base:base + count, symbol].copy()

    def fill_block(self, first_prb: int, n_prb: int, first_symbol: int,
                   n_symbols: int, symbols: np.ndarray, kind: int) -> None:
        """Write a rectangular PRB x symbol block (PDSCH-style mapping).

        ``symbols`` are laid out frequency-first within each OFDM symbol,
        matching the 38.211 mapping order for PDSCH.
        """
        self._check_prb_range(first_prb, n_prb)
        if first_symbol < 0 or first_symbol + n_symbols > N_SYMBOLS_PER_SLOT:
            raise GridError(
                f"symbol range [{first_symbol}, +{n_symbols}) out of slot")
        values = np.asarray(symbols, dtype=np.complex128).ravel()
        sc0 = first_prb * N_SC_PER_PRB
        width = n_prb * N_SC_PER_PRB
        capacity = width * n_symbols
        if values.size > capacity:
            raise GridError(
                f"{values.size} symbols exceed block capacity {capacity}")
        # Whole symbols first, then the partly filled one; the block's
        # REs past the values are zeroed but keep their occupancy.
        full, rest = divmod(values.size, width)
        block = self.data[sc0:sc0 + width,
                          first_symbol:first_symbol + n_symbols]
        occ = self.occupancy[sc0:sc0 + width,
                             first_symbol:first_symbol + n_symbols]
        block[:, :full] = values[:full * width].reshape(full, width).T
        occ[:, :full] = kind
        if full < n_symbols:
            block[:rest, full] = values[full * width:]
            block[rest:, full] = 0
            block[:, full + 1:] = 0
            occ[:rest, full] = kind

    def read_block(self, first_prb: int, n_prb: int, first_symbol: int,
                   n_symbols: int) -> np.ndarray:
        """Read a rectangular block back in mapping order."""
        self._check_prb_range(first_prb, n_prb)
        sc0 = first_prb * N_SC_PER_PRB
        sc1 = sc0 + n_prb * N_SC_PER_PRB
        block = self.data[sc0:sc1, first_symbol:first_symbol + n_symbols]
        return block.T.ravel().copy()

    def count_regs(self, kinds: tuple[int, ...] | None = None) -> int:
        """Count occupied REGs (one PRB x one symbol with any RE in use).

        This is the quantity behind the paper's Fig 8: comparing decoded
        grants against ground truth at REG granularity.
        """
        occ = self.occupancy
        if kinds is not None:
            used = np.isin(occ, kinds)
        else:
            used = occ != self.EMPTY
        per_reg = used.reshape(self.n_prb, N_SC_PER_PRB, N_SYMBOLS_PER_SLOT)
        return int(per_reg.any(axis=1).sum())

    def spare_res(self) -> int:
        """Resource elements not written by any channel this slot."""
        return int((self.occupancy == self.EMPTY).sum())

    def clone_with_noise(self, snr_db: float,
                         rng: np.random.Generator) -> "ResourceGrid":
        """Return a copy with AWGN at the given SNR (unit signal power).

        Noise is added to every RE, occupied or not, the way a receiver's
        front end sees the whole band; occupancy metadata is preserved for
        ground-truth accounting but a sniffer must not read it.
        """
        noisy = ResourceGrid(self.n_prb)
        noise_var = 10.0 ** (-snr_db / 10.0)
        scale = np.sqrt(noise_var / 2.0)
        noise = rng.normal(0.0, scale, self.data.shape) + \
            1j * rng.normal(0.0, scale, self.data.shape)
        noisy.data = self.data + noise
        noisy.occupancy = self.occupancy.copy()
        return noisy
