"""Demodulation reference signals for PDCCH and PDSCH (TS 38.211).

DMRS pilots let a real receiver estimate the channel; in this reproduction
the sniffer's channel knowledge comes from the radio-medium model, but the
pilots still occupy their standard RE positions so that REG accounting,
TBS overhead (``N_DMRS`` in the paper's Appendix A) and the PDCCH's grid
placement all match the air interface.
"""

from __future__ import annotations

import numpy as np

from repro.constants import N_SC_PER_PRB
from repro.phy.numerology import slots_per_frame
from repro.phy.scrambling import gold_sequence

#: PDCCH DMRS occupies subcarriers 1, 5, 9 of every REG (38.211 7.4.1.3.2).
PDCCH_DMRS_POSITIONS = (1, 5, 9)

#: Data REs per REG once the 3 DMRS REs are removed.
PDCCH_DATA_RES_PER_REG = N_SC_PER_PRB - len(PDCCH_DMRS_POSITIONS)

#: Type-1 single-symbol PDSCH DMRS uses every other subcarrier of the
#: DMRS symbol; with both CDM groups reserved that is 12 REs/PRB, the
#: default the paper's cells use.
PDSCH_DMRS_RES_PER_PRB = 12


def pdcch_dmrs_init(n_id: int, symbol: int, slot_index: int,
                    scs_khz: int = 30) -> int:
    """``c_init`` for PDCCH DMRS (38.211 section 7.4.1.3.1).

    38.211 reduces the slot number modulo the slots in one frame, which
    depends on the numerology; the paper's lab cells all run 30 kHz.
    """
    n_slot = slot_index % slots_per_frame(scs_khz)
    return ((1 << 17) * (14 * n_slot + symbol + 1) * (2 * n_id + 1)
            + 2 * n_id) % (1 << 31)


def pdcch_dmrs_symbols(n_id: int, symbol: int, slot_index: int,
                       n_regs: int, scs_khz: int = 30) -> np.ndarray:
    """QPSK pilot symbols for ``n_regs`` REGs of one PDCCH symbol."""
    c_init = pdcch_dmrs_init(n_id, symbol, slot_index, scs_khz)
    n_pilots = n_regs * len(PDCCH_DMRS_POSITIONS)
    bits = gold_sequence(c_init, 2 * n_pilots).astype(float)
    return ((1.0 - 2.0 * bits[0::2]) + 1j * (1.0 - 2.0 * bits[1::2])) \
        / np.sqrt(2.0)


def reg_data_subcarriers() -> tuple[int, ...]:
    """Subcarrier offsets within a REG that carry PDCCH payload."""
    return tuple(sc for sc in range(N_SC_PER_PRB)
                 if sc not in PDCCH_DMRS_POSITIONS)
