"""DCI-to-grant translation (TS 38.214 sections 5.1.2, 6.1.2).

A DCI is a compressed pointer; the *grant* is what it means: which PRBs,
which symbols, what modulation, and how many bits (TBS).  The gNB
performs this translation to build its transmissions, and NR-Scope
performs the identical translation on decoded DCIs (paper Appendix B
shows one DCI/grant pair).  Keeping one implementation here guarantees
the two agree bit-for-bit, which is what makes the sniffer's TBS
accounting exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from repro.phy.dci import Dci, DciError, DciFormat, riv_decode
from repro.phy.mcs_tables import McsEntry, mcs_entry
from repro.phy.tbs import TbsResult, transport_block_size


class GrantError(ValueError):
    """Raised when a DCI cannot be translated under a config."""


#: Time-domain resource allocation table (38.214 Table 5.1.2.1.1-2
#: shape): DCI ``time_alloc`` indexes (start_symbol, n_symbols, mapping).
#: Row 2 is the paper's Appendix B sample: t_alloc 2:12.
TDRA_TABLE: tuple[tuple[int, int, str], ...] = (
    (0, 14, "A"),
    (2, 12, "A"),
    (2, 12, "A"),
    (2, 10, "A"),
    (2, 9, "A"),
    (2, 7, "A"),
    (2, 5, "A"),
    (2, 4, "A"),
    (5, 7, "B"),
    (5, 4, "B"),
    (9, 4, "B"),
    (12, 2, "B"),
    (1, 13, "A"),
    (1, 6, "A"),
    (2, 2, "B"),
    (4, 10, "A"),
)


@dataclass(frozen=True)
class GrantConfig:
    """RRC-derived parameters needed to expand a DCI into a grant.

    The gNB knows these natively; NR-Scope learns them from SIB 1 and
    MSG 4 (``mcs-Table``, ``maxMIMO-Layers``, DMRS pattern, xOverhead -
    paper section 3.1.2 and Appendix A).
    """

    bwp_n_prb: int
    mcs_table: str = "qam64"
    n_layers: int = 1
    n_dmrs_per_prb: int = 12
    xoverhead_res: int = 0

    def __post_init__(self) -> None:
        if self.bwp_n_prb < 1:
            raise GrantError(f"BWP must have PRBs: {self.bwp_n_prb}")
        if not 1 <= self.n_layers <= 4:
            raise GrantError(f"layers out of range: {self.n_layers}")


@dataclass(frozen=True)
class Grant:
    """A fully resolved scheduling decision for one UE in one TTI."""

    rnti: int
    downlink: bool
    first_prb: int
    n_prb: int
    first_symbol: int
    n_symbols: int
    mapping_type: str
    mcs: McsEntry
    tbs_bits: int
    n_re: int
    ndi: int
    rv: int
    harq_id: int
    n_layers: int

    @property
    def n_regs(self) -> int:
        """REGs (PRB x symbol units) this grant occupies (paper Fig 8)."""
        return self.n_prb * self.n_symbols

    @property
    def tbs_bytes(self) -> int:
        """Payload bytes carried when the block decodes."""
        return self.tbs_bits // 8

    def describe(self) -> str:
        """Appendix-B style one-liner."""
        direction = "PDSCH" if self.downlink else "PUSCH"
        return (f"rnti=0x{self.rnti:04x}, ch={direction}, "
                f"t_alloc={self.first_symbol}:{self.n_symbols}, "
                f"f_alloc={self.first_prb}:{self.n_prb}, "
                f"mcs={self.mcs.index}, tbs={self.tbs_bits}, "
                f"rv={self.rv}, ndi={self.ndi}, nof_re={self.n_re}")


def time_allocation(time_alloc_index: int) -> tuple[int, int, str]:
    """Resolve a DCI time-domain allocation index via the TDRA table."""
    if not 0 <= time_alloc_index < len(TDRA_TABLE):
        raise GrantError(
            f"time allocation index {time_alloc_index} outside TDRA table")
    return TDRA_TABLE[time_alloc_index]


class Allocation(NamedTuple):
    """What a DCI's allocation fields mean under a grant config: the
    part of a :class:`Grant` that does not vary per DCI."""

    first_prb: int
    n_prb: int
    first_symbol: int
    n_symbols: int
    mapping_type: str
    mcs: McsEntry
    tbs_bits: int
    n_re: int


@lru_cache(maxsize=8192)
def allocation(config: GrantConfig, riv: int, time_alloc: int,
               mcs_index: int) -> Allocation:
    """The :class:`Allocation` a DCI's RIV, TDRA index and MCS index
    mean under ``config``.

    This is the paper's section 3.2.2 step: combine the DCI's frequency/
    time allocation and MCS with the RRC-known DMRS/overhead/layer
    parameters and run the 38.214 TBS computation.  The gNB reaches it
    through :func:`dci_to_grant` and the sniffer's sinks directly, and
    it is memoized (bounded, per process) because a cell repeats a few
    hundred allocations; a bad RIV or TDRA index is not cached, so it
    raises on every call.
    """
    try:
        first_prb, n_prb = riv_decode(riv, config.bwp_n_prb)
    except DciError as exc:
        raise GrantError(f"bad frequency allocation: {exc}") from exc
    first_symbol, n_symbols, mapping = time_allocation(time_alloc)
    mcs = mcs_entry(mcs_index, config.mcs_table)
    result: TbsResult = transport_block_size(
        n_prb=n_prb, n_symbols=n_symbols, mcs=mcs,
        n_layers=config.n_layers,
        n_dmrs_per_prb=config.n_dmrs_per_prb,
        n_oh_per_prb=config.xoverhead_res)
    return Allocation(first_prb, n_prb, first_symbol, n_symbols, mapping,
                      mcs, result.tbs_bits, result.n_re)


def dci_to_grant(dci: Dci, config: GrantConfig) -> Grant:
    """Expand a decoded DCI into its grant, computing the TBS
    (:func:`allocation`)."""
    return Grant(dci.rnti, dci.format is DciFormat.DL_1_1,
                 *allocation(config, dci.freq_alloc_riv, dci.time_alloc,
                             dci.mcs),
                 dci.ndi, dci.rv, dci.harq_id, config.n_layers)
