"""MAC downlink/uplink scheduler for the simulated gNB.

Per TTI the scheduler decides which UEs transmit, on which PRBs, at what
MCS — exactly the decisions NR-Scope reverse-engineers from the PDCCH.
Two policies are provided:

* :class:`RoundRobinScheduler` - equal-opportunity PRB shares, like the
  srsRAN default the paper measures against.
* :class:`ProportionalFairScheduler` - classic PF metric (instantaneous
  rate over EWMA throughput), the common commercial choice.

Realistic constraints shape the output: PDCCH capacity (CCEs in the
dedicated CORESET) bounds how many UEs can be scheduled per slot, HARQ
retransmissions preempt new data, and the MCS follows the UE's CQI
report through the same 38.214 tables the sniffer uses.

The scheduler reads the UEs through a :class:`UeSource`: the policy
ranks candidate UE ids, and a UE's full :class:`UeSchedulingContext` is
built only when the slot's loop reaches it.  It emits
:class:`AllocationPlan` objects; the gNB resolves each plan against the
UE's HARQ entity (assigning harq_id/NDI/RV) and only then builds the
final DCI and grant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.phy.coreset import SearchSpace
from repro.phy.dci import Dci, DciFormat, riv_encode
from repro.phy.grant import GrantConfig
from repro.phy.mcs_tables import McsEntry, mcs_for_spectral_efficiency
from repro.phy.pdcch import PdcchCandidate
from repro.phy.tbs import transport_block_size
from repro.ue.channel import cqi_to_efficiency


class SchedulerError(ValueError):
    """Raised for inconsistent scheduling requests."""


#: TDRA row used for regular data: symbols 2..13 (start 2, length 12),
#: leaving symbols 0-1 for the PDCCH region. Row 1 of the TDRA table.
DEFAULT_TIME_ALLOC = 1

#: Data symbols implied by DEFAULT_TIME_ALLOC (TDRA row 1 = 2:12).
DEFAULT_DATA_SYMBOLS = 12

#: Shorter TDRA rows used for small payloads, mirroring the allocation
#: variety real schedulers emit (and the paper's Appendix B shows):
#: (row index, data symbols).  Row 5 = 2:7, row 7 = 2:4.
SHORT_TIME_ALLOCS = ((7, 4), (5, 7))


@dataclass
class UeSchedulingContext:
    """Everything the scheduler needs to know about one connected UE."""

    ue_id: int
    rnti: int
    dl_backlog_bytes: int
    ul_backlog_bytes: int
    cqi: int
    #: NACKed transmissions awaiting a retransmission: (harq_id, downlink).
    pending_retx: list[tuple[int, bool]] = field(default_factory=list)
    #: Original transmission geometry per (harq_id, downlink):
    #: (n_prb, tdra row, data symbols) - a retransmission must carry the
    #: same transport block.
    retx_prb_sizes: dict[tuple[int, bool], tuple[int, int, int]] = \
        field(default_factory=dict)
    ewma_throughput_bps: float = 1.0
    #: Outer-loop link adaptation correction in dB (0 = pure CQI).
    olla_offset_db: float = 0.0


class UeSource:
    """What the scheduler reads about the UEs it may serve.

    :meth:`candidates` lists the UEs with downlink backlog, uplink
    backlog or a pending retransmission, in a fixed order.  A policy
    that ranks on channel or history reads :meth:`cqi` and
    :meth:`ewma` per candidate; :meth:`context` is called only for the
    UEs the slot's loop visits.
    """

    def candidates(self) -> list[int]:
        raise NotImplementedError

    def cqi(self, ue_id: int) -> int:
        raise NotImplementedError

    def ewma(self, ue_id: int) -> float:
        raise NotImplementedError

    def context(self, ue_id: int) -> "UeSchedulingContext":
        raise NotImplementedError


class ContextList(UeSource):
    """A :class:`UeSource` over ready-made contexts, in list order."""

    def __init__(self, contexts: Iterable[UeSchedulingContext]) -> None:
        self._by_id: dict[int, UeSchedulingContext] = {}
        for ue in contexts:
            if ue.ue_id in self._by_id:
                raise SchedulerError(f"two contexts for UE {ue.ue_id}")
            self._by_id[ue.ue_id] = ue

    def candidates(self) -> list[int]:
        return [ue.ue_id for ue in self._by_id.values()
                if ue.dl_backlog_bytes > 0 or ue.ul_backlog_bytes > 0
                or ue.pending_retx]

    def cqi(self, ue_id: int) -> int:
        return self._by_id[ue_id].cqi

    def ewma(self, ue_id: int) -> float:
        return self._by_id[ue_id].ewma_throughput_bps

    def context(self, ue_id: int) -> UeSchedulingContext:
        return self._by_id[ue_id]


@dataclass(frozen=True)
class AllocationPlan:
    """One scheduling decision awaiting HARQ resolution."""

    ue_id: int
    rnti: int
    downlink: bool
    first_prb: int
    n_prb: int
    mcs: McsEntry
    candidate: PdcchCandidate
    is_retransmission: bool = False
    retx_harq_id: int | None = None
    time_alloc: int = DEFAULT_TIME_ALLOC
    n_symbols: int = DEFAULT_DATA_SYMBOLS


def build_dci(plan: AllocationPlan, bwp_n_prb: int, ndi: int, rv: int,
              harq_id: int) -> Dci:
    """Materialise the DCI for a resolved allocation plan."""
    riv = riv_encode(plan.first_prb, plan.n_prb, bwp_n_prb)
    fmt = DciFormat.DL_1_1 if plan.downlink else DciFormat.UL_0_1
    return Dci(format=fmt, rnti=plan.rnti, freq_alloc_riv=riv,
               time_alloc=plan.time_alloc, mcs=plan.mcs.index, ndi=ndi,
               rv=rv, harq_id=harq_id, dai=0, tpc=1)


class BaseScheduler:
    """Shared machinery: PRB sizing, MCS choice, CCE placement."""

    def __init__(self, grant_config: GrantConfig,
                 search_space: SearchSpace,
                 max_ues_per_slot: int = 8) -> None:
        if max_ues_per_slot < 1:
            raise SchedulerError("must schedule at least one UE per slot")
        self.grant_config = grant_config
        self.search_space = search_space
        self.max_ues_per_slot = max_ues_per_slot
        self._rr_offset = 0

    # -- policy hook -------------------------------------------------
    def _order(self, ue_ids: list[int], ues: UeSource) -> list[int]:
        """Priority order of the candidate ids for this slot;
        overridden per policy."""
        raise NotImplementedError

    # -- shared pieces -----------------------------------------------
    def _aggregation_level(self, cqi: int) -> int:
        """Pick an AL by link quality: poor channels get more coding."""
        if cqi >= 10:
            return 2
        if cqi >= 6:
            return 4
        return 8

    def _mcs_for(self, cqi: int, olla_offset_db: float = 0.0) -> McsEntry:
        """Link adaptation: CQI -> spectral efficiency -> MCS row.

        The OLLA offset shifts the effective SINR implied by the CQI
        before the table lookup: positive offsets push toward higher
        MCS, negative ones back off after NACK streaks.
        """
        efficiency = cqi_to_efficiency(max(cqi, 1))
        if olla_offset_db:
            sinr = (2.0 ** efficiency - 1.0) * 10.0 ** (olla_offset_db
                                                        / 10.0)
            efficiency = math.log2(1.0 + max(sinr, 1e-9))
        return mcs_for_spectral_efficiency(efficiency,
                                           self.grant_config.mcs_table)

    def _tbs_bits(self, n_prb: int, n_symbols: int,
                  mcs: McsEntry) -> int:
        return transport_block_size(
            n_prb, n_symbols, mcs,
            n_layers=self.grant_config.n_layers,
            n_dmrs_per_prb=self.grant_config.n_dmrs_per_prb,
            n_oh_per_prb=self.grant_config.xoverhead_res).tbs_bits

    def _prbs_for_bytes(self, backlog_bytes: int, mcs: McsEntry,
                        max_prb: int,
                        n_symbols: int = DEFAULT_DATA_SYMBOLS) -> int:
        """Smallest PRB count whose TBS covers the backlog, capped."""
        target_bits = max(backlog_bytes, 1) * 8
        low, high = 1, max(1, max_prb)
        best = high
        # TBS is monotone in PRBs; binary search the smallest cover.
        while low <= high:
            mid = (low + high) // 2
            if self._tbs_bits(mid, n_symbols, mcs) >= target_bits:
                best = mid
                high = mid - 1
            else:
                low = mid + 1
        return min(best, max_prb)

    def _time_alloc_for(self, backlog_bytes: int,
                        mcs: McsEntry) -> tuple[int, int]:
        """(TDRA row, data symbols) sized to the payload.

        Small payloads ride short allocations, freeing the remaining
        symbols — the variety a sniffer's TDRA table must handle.
        """
        target_bits = max(backlog_bytes, 1) * 8
        for row, n_symbols in SHORT_TIME_ALLOCS:
            # Would a single PRB at this length already cover it?
            if self._tbs_bits(1, n_symbols, mcs) >= target_bits:
                return row, n_symbols
        return DEFAULT_TIME_ALLOC, DEFAULT_DATA_SYMBOLS

    def _place_pdcch(self, rnti: int, slot_index: int, level: int,
                     used_cces: set[int]) -> PdcchCandidate | None:
        """First free candidate of the UE's search space at this level.

        Falls back to other aggregation levels before giving up, the way
        real schedulers retry; returns None when the CORESET is full
        (that UE simply waits a slot).
        """
        levels = [level] + [lv for lv in (2, 4, 8, 1) if lv != level]
        for lv in levels:
            if self.search_space.candidates_per_level.get(lv, 0) == 0:
                continue
            for start in self.search_space.candidate_cces(lv, slot_index,
                                                          rnti):
                cces = set(range(start, start + lv))
                if not cces & used_cces:
                    used_cces |= cces
                    return PdcchCandidate(first_cce=start,
                                          aggregation_level=lv)
        return None

    # -- main entry ---------------------------------------------------
    def schedule(self, slot_index: int,
                 ues: UeSource | Iterable[UeSchedulingContext],
                 schedule_uplink: bool = True) -> list[AllocationPlan]:
        """Produce this slot's allocation plans.  ``ues`` is a
        :class:`UeSource` or the contexts of a :class:`ContextList`.

        ``slot_index`` places the PDCCHs by the 38.213 search-space
        hash, which numbers the slot within its frame; the gNB passes
        that number, so the hash follows the cell's numerology."""
        source = ues if isinstance(ues, UeSource) else ContextList(ues)
        plans: list[AllocationPlan] = []
        used_cces: set[int] = set()
        n_prb_total = self.grant_config.bwp_n_prb
        n_cces = self.search_space.coreset.n_cces
        next_prb = 0

        scheduled = 0
        for ue_id in self._order(source.candidates(), source):
            # With every CCE taken, no later UE can get a PDCCH.
            if scheduled >= self.max_ues_per_slot \
                    or next_prb >= n_prb_total or len(used_cces) >= n_cces:
                break
            ue = source.context(ue_id)
            mcs = self._mcs_for(ue.cqi, ue.olla_offset_db)
            level = self._aggregation_level(ue.cqi)
            made_one = False

            # Retransmissions first: same geometry, same process.
            for harq_id, downlink in ue.pending_retx:
                if next_prb >= n_prb_total:
                    break
                orig_prb, orig_row, orig_symbols = ue.retx_prb_sizes.get(
                    (harq_id, downlink),
                    (4, DEFAULT_TIME_ALLOC, DEFAULT_DATA_SYMBOLS))
                n_prb = min(orig_prb, n_prb_total - next_prb)
                candidate = self._place_pdcch(ue.rnti, slot_index, level,
                                              used_cces)
                if candidate is None:
                    break
                plans.append(AllocationPlan(
                    ue_id=ue.ue_id, rnti=ue.rnti, downlink=downlink,
                    first_prb=next_prb if downlink else 0, n_prb=n_prb,
                    mcs=mcs, candidate=candidate, is_retransmission=True,
                    retx_harq_id=harq_id, time_alloc=orig_row,
                    n_symbols=orig_symbols))
                if downlink:
                    next_prb += n_prb
                made_one = True

            # New downlink data (short TDRA rows for small payloads).
            if ue.dl_backlog_bytes > 0 and next_prb < n_prb_total:
                candidate = self._place_pdcch(ue.rnti, slot_index, level,
                                              used_cces)
                if candidate is not None:
                    time_alloc, n_symbols = self._time_alloc_for(
                        ue.dl_backlog_bytes, mcs)
                    n_prb = self._prbs_for_bytes(
                        ue.dl_backlog_bytes, mcs,
                        n_prb_total - next_prb, n_symbols=n_symbols)
                    plans.append(AllocationPlan(
                        ue_id=ue.ue_id, rnti=ue.rnti, downlink=True,
                        first_prb=next_prb, n_prb=n_prb, mcs=mcs,
                        candidate=candidate, time_alloc=time_alloc,
                        n_symbols=n_symbols))
                    next_prb += n_prb
                    made_one = True

            # Uplink grant (also carried on the downlink PDCCH).
            if schedule_uplink and ue.ul_backlog_bytes > 0:
                candidate = self._place_pdcch(ue.rnti, slot_index, level,
                                              used_cces)
                if candidate is not None:
                    n_prb = self._prbs_for_bytes(ue.ul_backlog_bytes, mcs,
                                                 n_prb_total)
                    plans.append(AllocationPlan(
                        ue_id=ue.ue_id, rnti=ue.rnti, downlink=False,
                        first_prb=0, n_prb=n_prb, mcs=mcs,
                        candidate=candidate))
                    made_one = True

            if made_one:
                scheduled += 1
        return plans


class RoundRobinScheduler(BaseScheduler):
    """Rotates priority across UEs slot by slot."""

    def _order(self, ue_ids: list[int], ues: UeSource) -> list[int]:
        if not ue_ids:
            return []
        ordered = sorted(ue_ids)
        self._rr_offset = (self._rr_offset + 1) % len(ordered)
        return ordered[self._rr_offset:] + ordered[:self._rr_offset]


class ProportionalFairScheduler(BaseScheduler):
    """Classic PF: rank by achievable rate over historical throughput."""

    def _order(self, ue_ids: list[int], ues: UeSource) -> list[int]:
        def metric(ue_id: int) -> float:
            rate = cqi_to_efficiency(max(ues.cqi(ue_id), 1))
            return rate / max(ues.ewma(ue_id), 1.0)

        return sorted(ue_ids, key=metric, reverse=True)
