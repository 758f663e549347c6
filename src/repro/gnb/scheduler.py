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

Sizing an allocation reads TBS from :func:`tbs_row`, one cached row per
(grant config, MCS, data symbols), and the slot's taken CCEs are one
integer bitmask.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

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

#: Aggregation levels a PDCCH placement tries, the preferred one first.
_LEVEL_ORDER = {level: (level,) + tuple(lv for lv in (2, 4, 8, 1)
                                        if lv != level)
                for level in (1, 2, 4, 8)}

#: A placement's candidate, one shared frozen object per (first CCE,
#: level): a CORESET has at most a few hundred.
_candidate = lru_cache(maxsize=512)(PdcchCandidate)


@lru_cache(maxsize=256)
def tbs_row(config: GrantConfig, mcs: McsEntry,
            n_symbols: int) -> tuple[int, ...]:
    """TBS bits of 1, 2, ..., ``config.bwp_n_prb`` PRBs at ``mcs`` over
    ``n_symbols`` data symbols: entry ``n - 1`` is the TBS of ``n``
    PRBs.

    TBS is non-decreasing in PRBs (a test checks every MCS table, TDRA
    length and profile width), so ``bisect`` finds the smallest PRB
    count that covers a payload.  Memoized per process and bounded; a
    cell uses a few dozen rows.
    """
    # The uncached TBS: a row's entries would flood its per-call cache.
    tbs = transport_block_size.__wrapped__
    return tuple(tbs(n_prb, n_symbols, mcs, n_layers=config.n_layers,
                     n_dmrs_per_prb=config.n_dmrs_per_prb,
                     n_oh_per_prb=config.xoverhead_res).tbs_bits
                 for n_prb in range(1, config.bwp_n_prb + 1))


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


class AllocationPlan(NamedTuple):
    """One scheduling decision awaiting HARQ resolution (a named tuple:
    the scheduler makes one per DCI, and a tuple is the cheapest
    immutable record to build)."""

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
    #: TBS of the new transport block; 0 on a retransmission, which
    #: resends the block its HARQ process holds.
    tbs_bits: int = 0


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

    def _prbs_for_bytes(self, backlog_bytes: int, mcs: McsEntry,
                        max_prb: int,
                        n_symbols: int = DEFAULT_DATA_SYMBOLS) -> int:
        """Smallest PRB count whose TBS covers the backlog, capped."""
        if max_prb > self.grant_config.bwp_n_prb:
            raise SchedulerError(f"PRB cap {max_prb} exceeds the BWP's "
                                 f"{self.grant_config.bwp_n_prb}")
        row = tbs_row(self.grant_config, mcs, n_symbols)
        target_bits = max(backlog_bytes, 1) * 8
        return min(bisect_left(row, target_bits, 0, max_prb) + 1, max_prb)

    def _time_alloc_for(self, backlog_bytes: int,
                        mcs: McsEntry) -> tuple[int, int]:
        """(TDRA row, data symbols) sized to the payload.

        Small payloads ride short allocations, freeing the remaining
        symbols — the variety a sniffer's TDRA table must handle.
        """
        target_bits = max(backlog_bytes, 1) * 8
        for time_alloc, n_symbols in SHORT_TIME_ALLOCS:
            # Would a single PRB at this length already cover it?
            if tbs_row(self.grant_config, mcs, n_symbols)[0] >= target_bits:
                return time_alloc, n_symbols
        return DEFAULT_TIME_ALLOC, DEFAULT_DATA_SYMBOLS

    def _place_pdcch(self, rnti: int, slot_index: int, level: int,
                     used_cces: int) -> tuple[PdcchCandidate | None, int]:
        """First free candidate of the UE's search space at this level.

        ``used_cces`` is the slot's taken CCEs as a bitmask (bit ``i``
        is CCE ``i``).  Falls back to other aggregation levels before
        giving up, the way real schedulers retry.  Returns the
        candidate and the mask with its CCEs taken, or ``None`` and the
        mask unchanged when the CORESET is full (that UE simply waits a
        slot).
        """
        space = self.search_space
        for lv in _LEVEL_ORDER.get(level, (level, 2, 4, 8, 1)):
            if space.candidates_per_level.get(lv, 0) == 0:
                continue
            span = (1 << lv) - 1
            for start in space.candidate_cces(lv, slot_index, rnti):
                cces = span << start
                if not cces & used_cces:
                    return _candidate(start, lv), used_cces | cces
        return None, used_cces

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
        config = self.grant_config
        used_cces = 0
        n_prb_total = config.bwp_n_prb
        n_cces = self.search_space.coreset.n_cces
        next_prb = 0

        scheduled = 0
        for ue_id in self._order(source.candidates(), source):
            # With every CCE taken, no later UE can get a PDCCH.
            if scheduled >= self.max_ues_per_slot \
                    or next_prb >= n_prb_total \
                    or used_cces.bit_count() >= n_cces:
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
                candidate, used_cces = self._place_pdcch(
                    ue.rnti, slot_index, level, used_cces)
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
                candidate, used_cces = self._place_pdcch(
                    ue.rnti, slot_index, level, used_cces)
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
                        n_symbols=n_symbols,
                        tbs_bits=tbs_row(config, mcs, n_symbols)[n_prb - 1]))
                    next_prb += n_prb
                    made_one = True

            # Uplink grant (also carried on the downlink PDCCH).
            if schedule_uplink and ue.ul_backlog_bytes > 0:
                candidate, used_cces = self._place_pdcch(
                    ue.rnti, slot_index, level, used_cces)
                if candidate is not None:
                    n_prb = self._prbs_for_bytes(ue.ul_backlog_bytes, mcs,
                                                 n_prb_total)
                    row = tbs_row(config, mcs, DEFAULT_DATA_SYMBOLS)
                    plans.append(AllocationPlan(
                        ue_id=ue.ue_id, rnti=ue.rnti, downlink=False,
                        first_prb=0, n_prb=n_prb, mcs=mcs,
                        candidate=candidate, tbs_bits=row[n_prb - 1]))
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
