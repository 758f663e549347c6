"""The per-slot resource grid: PRBs x OFDM symbols of resource elements.

Both ends of the simulation meet here: the gNB writes PDCCH symbols and
their DMRS into a grid, the OFDM layer turns it into time-domain
samples, and NR-Scope's decoder reads candidate REs back out of the grid
it captured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import N_SC_PER_PRB, N_SYMBOLS_PER_SLOT


class GridError(ValueError):
    """Raised for invalid grid geometry."""


@dataclass
class ResourceGrid:
    """One slot of resource elements for a carrier of ``n_prb`` PRBs.

    ``data`` is indexed ``[subcarrier, symbol]`` and always spans the
    whole slot.  ``n_ctrl`` bounds the control region, symbols
    ``[0, n_ctrl)``: the only symbols a capture adds noise to
    (DESIGN.md section 2).  It defaults to the whole slot.
    """

    n_prb: int
    n_ctrl: int = N_SYMBOLS_PER_SLOT
    data: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_prb < 1:
            raise GridError(f"PRB count must be positive: {self.n_prb}")
        if not 1 <= self.n_ctrl <= N_SYMBOLS_PER_SLOT:
            raise GridError(
                f"control region must be 1-{N_SYMBOLS_PER_SLOT} symbols:"
                f" {self.n_ctrl}")
        self.data = np.zeros((self.n_prb * N_SC_PER_PRB, N_SYMBOLS_PER_SLOT),
                             dtype=np.complex128)

    @property
    def n_subcarriers(self) -> int:
        """Total active subcarriers across the carrier."""
        return self.n_prb * N_SC_PER_PRB

    def clone_with_noise(self, snr_db: float,
                         rng: np.random.Generator) -> "ResourceGrid":
        """Return a copy with AWGN at the given SNR (unit signal power)
        on the control region.

        Every RE of symbols ``[0, n_ctrl)``, occupied or not, gets
        i.i.d. complex Gaussian noise of variance ``10**(-snr_db/10)``,
        the way a receiver's front end sees the CORESETs' whole band.
        The REs past the control region are copied unchanged.
        """
        noisy = ResourceGrid(self.n_prb, self.n_ctrl)
        noisy.data = self.data.copy()
        scale = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
        # One draw, read as (real, imaginary) pairs.
        draws = rng.standard_normal((self.n_subcarriers, self.n_ctrl, 2))
        noise = draws.view(np.complex128)[..., 0]
        noisy.data[:, :self.n_ctrl] += scale * noise
        return noisy
