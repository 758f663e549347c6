"""Modulation and coding scheme tables from TS 38.214 section 5.1.3.1.

The DCI carries a 5-bit MCS index; which table it indexes into is part of
the RRC configuration NR-Scope learns from MSG 4 (``mcs-Table`` in
``PDSCH-Config``). Both tables the paper's cells use are included: the
default 64QAM table and the 256QAM table (the Appendix B sample DCI shows
``mcs_table=256qam``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.phy.modulation import QAM16, QAM64, QAM256, QPSK, ModulationScheme


class McsError(ValueError):
    """Raised for out-of-range MCS indices or unknown tables."""


@dataclass(frozen=True)
class McsEntry:
    """One MCS row: modulation order and target code rate."""

    index: int
    modulation: ModulationScheme
    code_rate_x1024: float

    @property
    def code_rate(self) -> float:
        """Target code rate R as a fraction."""
        return self.code_rate_x1024 / 1024.0

    @property
    def qm(self) -> int:
        """Modulation order (bits per symbol)."""
        return self.modulation.bits_per_symbol

    @property
    def spectral_efficiency(self) -> float:
        """Information bits per resource element (R * Qm)."""
        return self.code_rate * self.qm


def _rows(table: list[tuple[int, float]]) -> tuple[McsEntry, ...]:
    by_qm = {2: QPSK, 4: QAM16, 6: QAM64, 8: QAM256}
    return tuple(McsEntry(i, by_qm[qm], rate)
                 for i, (qm, rate) in enumerate(table))


#: Table 5.1.3.1-1 (qam64): indices 0..28; 29..31 are reserved for
#: retransmission signalling.
TABLE_QAM64 = _rows([
    (2, 120), (2, 157), (2, 193), (2, 251), (2, 308), (2, 379), (2, 449),
    (2, 526), (2, 602), (2, 679),
    (4, 340), (4, 378), (4, 434), (4, 490), (4, 553), (4, 616), (4, 658),
    (6, 438), (6, 466), (6, 517), (6, 567), (6, 616), (6, 666), (6, 719),
    (6, 772), (6, 822), (6, 873), (6, 910), (6, 948),
])

#: Table 5.1.3.1-2 (qam256): indices 0..27; 28..31 reserved.
TABLE_QAM256 = _rows([
    (2, 120), (2, 193), (2, 308), (2, 449), (2, 602),
    (4, 378), (4, 434), (4, 490), (4, 553), (4, 616), (4, 658),
    (6, 466), (6, 517), (6, 567), (6, 616), (6, 666), (6, 719), (6, 772),
    (6, 822), (6, 873),
    (8, 682.5), (8, 711), (8, 754), (8, 797), (8, 841), (8, 885),
    (8, 916.5), (8, 948),
])

TABLES = {"qam64": TABLE_QAM64, "qam256": TABLE_QAM256}


def mcs_entry(index: int, table: str = "qam64") -> McsEntry:
    """Look up an MCS index in the named table."""
    if table not in TABLES:
        raise McsError(f"unknown MCS table: {table!r}")
    rows = TABLES[table]
    if not 0 <= index < len(rows):
        raise McsError(
            f"MCS index {index} out of range for table {table!r}"
            f" (0..{len(rows) - 1})")
    return rows[index]


def max_mcs_index(table: str = "qam64") -> int:
    """Highest non-reserved MCS index of a table."""
    if table not in TABLES:
        raise McsError(f"unknown MCS table: {table!r}")
    return len(TABLES[table]) - 1


@lru_cache(maxsize=1024)
def mcs_for_spectral_efficiency(efficiency: float,
                                table: str = "qam64") -> McsEntry:
    """Highest-rate MCS whose spectral efficiency does not exceed the target.

    This mirrors the link-adaptation step a gNB performs when it converts a
    CQI report into an MCS choice; the simulator's scheduler uses it and
    NR-Scope's telemetry observes the result (paper Fig 15).
    """
    if table not in TABLES:
        raise McsError(f"unknown MCS table: {table!r}")
    rows = TABLES[table]
    best = rows[0]
    for row in rows:
        if row.spectral_efficiency <= efficiency and \
                row.spectral_efficiency >= best.spectral_efficiency:
            best = row
    return best
