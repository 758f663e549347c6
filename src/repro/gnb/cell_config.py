"""Cell profiles for the paper's four evaluation networks (section 5.1).

Each :class:`CellProfile` carries everything the simulated gNB needs and
everything NR-Scope must discover over the air: band, duplexing, SCS,
bandwidth, BWP, MCS table, CORESET geometry.  The five concrete profiles
match Fig 5/6 and the methodology text:

* ``SRSRAN_PROFILE``    - srsRAN/Open5GS, n41 TDD, 2524.95 MHz, 30 kHz, 20 MHz
* ``MOSOLAB_PROFILE``   - Mosolabs/Aether, n48 TDD, 3561.6 MHz, 30 kHz, 20 MHz
* ``AMARISOFT_PROFILE`` - Amari Callbox, n78 TDD, 3489.42 MHz, 30 kHz, 20 MHz
* ``TMOBILE_N25_PROFILE`` - cell 1: n25 FDD, 1989.85 MHz, 15 kHz, 10 MHz, BWP 1
* ``TMOBILE_N71_PROFILE`` - cell 2: n71 FDD, 622.85 MHz, 15 kHz, 15 MHz, BWP 1
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import SFN_MODULO
from repro.phy.coreset import Coreset, SearchSpace, coreset0_for_bandwidth
from repro.phy.dci import DciSizeConfig
from repro.phy.grant import GrantConfig
from repro.phy.numerology import prb_count_for_bandwidth, slot_duration_s
from repro.rrc.messages import Mib, RachConfig, SearchSpaceConfig, Sib1, \
    TddConfig


class CellConfigError(ValueError):
    """Raised for inconsistent profile parameters."""


@dataclass(frozen=True)
class CellProfile:
    """Static configuration of one 5G SA cell."""

    name: str
    band: str
    is_tdd: bool
    center_frequency_hz: float
    scs_khz: int
    bandwidth_hz: float
    cell_id: int
    bwp_id: int = 0
    mcs_table: str = "qam64"
    max_mimo_layers: int = 1
    tdd: TddConfig = field(default_factory=TddConfig)
    mib_period_frames: int = 8
    sib1_period_frames: int = 16
    n_prb_override: int | None = None

    def __post_init__(self) -> None:
        if self.scs_khz not in (15, 30, 60):
            raise CellConfigError(f"bad SCS: {self.scs_khz}")
        if self.max_mimo_layers < 1:
            raise CellConfigError("need at least one MIMO layer")

    @property
    def n_prb(self) -> int:
        """Carrier width in PRBs (38.101 tables via the numerology helper)."""
        if self.n_prb_override is not None:
            return self.n_prb_override
        return prb_count_for_bandwidth(self.bandwidth_hz, self.scs_khz)

    @property
    def slot_duration_s(self) -> float:
        """TTI length for this cell's numerology."""
        return slot_duration_s(self.scs_khz)

    @property
    def slots_per_second(self) -> int:
        """Scheduling opportunities per second."""
        return int(round(1.0 / self.slot_duration_s))

    def coreset0(self) -> Coreset:
        """CORESET 0 (from the MIB), home of SIB1 scheduling."""
        return coreset0_for_bandwidth(self.n_prb)

    def dedicated_coreset(self) -> Coreset:
        """The UE-dedicated CORESET signalled in MSG 4.

        Placed on symbol 1 so it never collides with CORESET 0 (symbol 0)
        in the same slot's control region.
        """
        n_prb = min(48, (self.n_prb // 6) * 6)
        return Coreset(coreset_id=1, first_prb=0, n_prb=n_prb, n_symbols=1,
                       first_symbol=1, interleaved=True)

    @property
    def control_symbols(self) -> int:
        """End of the last symbol of any CORESET the cell configures:
        the control region a capture covers (DESIGN.md section 2)."""
        return max(coreset.first_symbol + coreset.n_symbols
                   for coreset in (self.coreset0(),
                                   self.dedicated_coreset()))

    def search_space_config(self) -> SearchSpaceConfig:
        """The MSG 4 search-space element for this cell."""
        coreset = self.dedicated_coreset()
        return SearchSpaceConfig(
            coreset_id=coreset.coreset_id,
            coreset_first_prb=coreset.first_prb,
            coreset_n_prb=coreset.n_prb,
            coreset_n_symbols=coreset.n_symbols,
            coreset_first_symbol=coreset.first_symbol,
            interleaved=coreset.interleaved,
            n_candidates_al1=0, n_candidates_al2=2, n_candidates_al4=2,
            n_candidates_al8=1)

    def ue_search_space(self) -> SearchSpace:
        """The dedicated search space as a PHY object."""
        config = self.search_space_config()
        return SearchSpace(search_space_id=1,
                           coreset=self.dedicated_coreset(),
                           is_common=False,
                           candidates_per_level=config.candidates_per_level())

    def common_search_space(self) -> SearchSpace:
        """The type-0 common search space in CORESET 0 (SIB1, MSG 2/4)."""
        return SearchSpace(search_space_id=0, coreset=self.coreset0(),
                           is_common=True,
                           candidates_per_level={4: 2, 8: 1})

    def dci_size_config(self) -> DciSizeConfig:
        """Field widths for this cell's scheduling DCIs."""
        return DciSizeConfig(n_prb_bwp=self.n_prb,
                             bwp_indicator_bits=1 if self.bwp_id else 0)

    def grant_config(self) -> GrantConfig:
        """TBS-relevant parameters (paper Appendix A inputs)."""
        return GrantConfig(bwp_n_prb=self.n_prb, mcs_table=self.mcs_table,
                           n_layers=self.max_mimo_layers,
                           n_dmrs_per_prb=12, xoverhead_res=0)

    def build_mib(self, sfn: int) -> Mib:
        """The MIB broadcast for a given frame."""
        return Mib(sfn=sfn % SFN_MODULO, scs_common_khz=self.scs_khz,
                   ssb_subcarrier_offset=0, dmrs_typea_position=2,
                   coreset0_index=5, search_space0_index=0)

    def build_sib1(self) -> Sib1:
        """The SIB1 carrying the cell's common configuration."""
        coreset = self.coreset0()
        return Sib1(cell_identity=self.cell_id, n_prb_carrier=self.n_prb,
                    scs_khz=self.scs_khz, is_tdd=self.is_tdd,
                    rach=RachConfig(msg1_scs_khz=self.scs_khz),
                    tdd=self.tdd, initial_bwp_id=self.bwp_id,
                    pdcch_coreset_prbs=coreset.n_prb,
                    pdcch_coreset_symbols=coreset.n_symbols)

    def is_downlink_slot(self, slot_index: int) -> bool:
        """TDD gate for downlink transmission (FDD: always true)."""
        if not self.is_tdd:
            return True
        return self.tdd.is_downlink(slot_index)

    def is_uplink_slot(self, slot_index: int) -> bool:
        """TDD gate for uplink transmission (FDD: always true)."""
        if not self.is_tdd:
            return True
        return self.tdd.is_uplink(slot_index)


SRSRAN_PROFILE = CellProfile(
    name="srsran", band="n41", is_tdd=True,
    center_frequency_hz=2524.95e6, scs_khz=30, bandwidth_hz=20e6,
    cell_id=1, mcs_table="qam64", n_prb_override=51)

MOSOLAB_PROFILE = CellProfile(
    name="mosolab", band="n48", is_tdd=True,
    center_frequency_hz=3561.6e6, scs_khz=30, bandwidth_hz=20e6,
    cell_id=2, mcs_table="qam256", n_prb_override=51)

AMARISOFT_PROFILE = CellProfile(
    name="amarisoft", band="n78", is_tdd=True,
    center_frequency_hz=3489.42e6, scs_khz=30, bandwidth_hz=20e6,
    cell_id=3, mcs_table="qam256", max_mimo_layers=2, n_prb_override=51)

TMOBILE_N25_PROFILE = CellProfile(
    name="tmobile-n25", band="n25", is_tdd=False,
    center_frequency_hz=1989.85e6, scs_khz=15, bandwidth_hz=10e6,
    cell_id=4, bwp_id=1, mcs_table="qam256", n_prb_override=52)

TMOBILE_N71_PROFILE = CellProfile(
    name="tmobile-n71", band="n71", is_tdd=False,
    center_frequency_hz=622.85e6, scs_khz=15, bandwidth_hz=15e6,
    cell_id=5, bwp_id=1, mcs_table="qam256", n_prb_override=79)

ALL_PROFILES = {p.name: p for p in (
    SRSRAN_PROFILE, MOSOLAB_PROFILE, AMARISOFT_PROFILE,
    TMOBILE_N25_PROFILE, TMOBILE_N71_PROFILE)}
