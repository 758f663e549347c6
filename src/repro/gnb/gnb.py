"""The simulated 5G SA gNodeB (DESIGN.md substitution for the testbeds).

Per slot the gNB: broadcasts MIB/SIB1 on schedule, advances the RACH FSM
and emits MSG 4s, runs the MAC scheduler over the connected UEs, resolves
HARQ state into final DCIs and grants, applies each UE's instantaneous
channel to decide transport-block success, and logs *everything* it
transmitted into :class:`GnbLog` — the same role srsRAN's log plays as
ground truth in the paper's evaluation (section 5.2.1).

Two fidelity modes:

* ``message`` - DCIs travel as structured records; a sniffer models its
  decode success with the calibrated PDCCH BLER.  Fast enough for
  minutes-long sessions with 64 UEs.
* ``iq`` - every PDCCH is polar-encoded into a slot resource grid,
  whose control region the sniffer captures with noise and actually
  decodes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.constants import SI_RNTI
from repro.phy.dci import Dci, DciFormat, riv_encode
from repro.phy.grant import Grant, dci_to_grant
from repro.phy.numerology import SlotClock
from repro.phy.pdcch import PdcchCandidate, encode_pdcch
from repro.phy.resource_grid import ResourceGrid
from repro.phy.uci import UciReport
from repro.gnb.cell_config import CellProfile
from repro.gnb.harq import HarqEntity
from repro.gnb.rach import Msg4Event, RachProcedure
from repro.gnb.scheduler import AllocationPlan, BaseScheduler, \
    ProportionalFairScheduler, RoundRobinScheduler, \
    UeSchedulingContext, UeSource, build_dci
from repro.rrc.messages import Mib, RrcSetup, Sib1
from repro.ue.channel import transport_block_survives
from repro.ue.table import UeTable
from repro.ue.traffic import TrafficBuffer
from repro.ue.ue import UserEquipment


class GnbError(ValueError):
    """Raised for invalid gNB operations."""


@dataclass(frozen=True)
class DciRecord:
    """Ground truth for one transmitted DCI (one srsRAN log line)."""

    slot_index: int
    time_s: float
    rnti: int
    dci: Dci
    grant: Grant
    candidate: PdcchCandidate
    search_space: str            # "common" or "ue"
    is_retransmission: bool
    delivered: bool              # did the target UE decode the data?
    payload_bytes: int
    n_packets: int


@dataclass(frozen=True)
class Msg4Record:
    """Ground truth for one RACH completion (MSG 4)."""

    slot_index: int
    time_s: float
    ue_id: int
    tc_rnti: int
    rrc_setup: RrcSetup


@dataclass(frozen=True)
class UciRecord:
    """Ground truth for one PUCCH UCI transmission (paper section 7's
    future-work channel, implemented here)."""

    slot_index: int
    time_s: float
    rnti: int
    report: UciReport


#: Struct codes of the :class:`~repro.phy.dci.Dci` fields the DCI log
#: stores, in field order (``format`` is interned).  Widths follow the
#: 3GPP ranges: an RNTI and the RIV of a 275-PRB BWP fit 16 bits, and
#: every other DCI field is at most 5 bits wide.
_DCI_CODES = {
    "rnti": "H", "freq_alloc_riv": "H", "time_alloc": "B", "mcs": "B",
    "ndi": "B", "rv": "B", "harq_id": "B", "dai": "B", "tpc": "B",
    "pucch_resource": "B", "harq_feedback_timing": "B",
    "antenna_ports": "B", "srs_request": "B", "dmrs_seq_init": "B",
    "vrb_to_prb": "B", "bwp_indicator": "B", "freq_hopping": "B"}

#: The same for :class:`~repro.phy.grant.Grant`, before and after its
#: interned ``mapping_type`` and ``mcs``: PRBs <= 275 and
#: N_RE = min(156, N'_RE) * PRBs <= 42,900 fit 16 bits, and a TBS of
#: four layers over 275 PRBs fits 32.
_GRANT_HEAD_CODES = {
    "rnti": "H", "downlink": "?", "first_prb": "H", "n_prb": "H",
    "first_symbol": "B", "n_symbols": "B"}
_GRANT_TAIL_CODES = {
    "tbs_bits": "I", "n_re": "H", "ndi": "B", "rv": "B", "harq_id": "B",
    "n_layers": "B"}

#: One DCI log row: the record's slot, time, RNTI, kind (the index of
#: its interned ``(search_space, format, mapping_type, mcs)``), flags
#: and payload counts, then the DCI, grant and PDCCH candidate fields.
#: ``struct`` raises on a value its code cannot hold instead of
#: wrapping it.
_DCI_ROW = struct.Struct(
    "<qdHH??II" + "".join(_DCI_CODES.values())
    + "".join(_GRANT_HEAD_CODES.values())
    + "".join(_GRANT_TAIL_CODES.values()) + "BB")
_DCI_AT = 8
_GRANT_AT = _DCI_AT + len(_DCI_CODES)
_GRANT_TAIL_AT = _GRANT_AT + len(_GRANT_HEAD_CODES)
_CANDIDATE_AT = _GRANT_TAIL_AT + len(_GRANT_TAIL_CODES)
_dci_ints = attrgetter(*_DCI_CODES)
_grant_ints = attrgetter(*_GRANT_HEAD_CODES, *_GRANT_TAIL_CODES)

#: One UCI log row: slot, time, RNTI, the report's RNTI, slot and
#: scheduling request, and its kind (interned ``(harq_ack, cqi)``).
_UCI_ROW = struct.Struct("<qdHHq?H")


class _Interned:
    """Distinct values in first-seen order; a log row stores the index
    of its value.  Pickles as the values alone.

    ``by_key`` maps a caller's cheap key (one that identifies a value
    without hashing it) to the value's index; a miss falls back to
    :meth:`index` and fills it in.
    """

    __slots__ = ("values", "_index", "by_key")

    def __init__(self, values: list | None = None) -> None:
        self.values: list = values or []
        self._index = {value: i for i, value in enumerate(self.values)}
        self.by_key: dict = {}

    def __getstate__(self) -> list:
        return self.values

    def __setstate__(self, values: list) -> None:
        self.__init__(values)

    def index(self, value) -> int:
        at = self._index.get(value)
        if at is None:
            at = self._index[value] = len(self.values)
            self.values.append(value)
        return at


class GnbLog:
    """The gNB-side log used as evaluation ground truth.

    DCI and UCI records are kept as fixed-width packed rows (``struct``
    layouts :data:`_DCI_ROW`, :data:`_UCI_ROW`), one append per record,
    with each record's non-integer values interned in a small table the
    row indexes.  ``dci_records`` and ``uci_records`` rebuild the
    records on read, equal to the ones the gNB emitted; a pickle holds
    the rows and the tables, not one object graph per record.  The few
    MSG 4 records stay objects.
    """

    def __init__(self) -> None:
        self.msg4_records: list[Msg4Record] = []
        self._dci_rows = bytearray()
        self._dci_kinds = _Interned()
        self._uci_rows = bytearray()
        self._uci_kinds = _Interned()

    def add_dci(self, record: DciRecord) -> None:
        dci, grant, candidate = record.dci, record.grant, record.candidate
        mcs = grant.mcs
        # The kind's fields as plain strings and numbers: hashing the
        # DciFormat and McsEntry objects costs more than the row.
        key = (record.search_space, dci.format is DciFormat.DL_1_1,
               grant.mapping_type, mcs.index, mcs.code_rate_x1024,
               mcs.modulation.name, mcs.modulation.bits_per_symbol)
        kind = self._dci_kinds.by_key.get(key)
        if kind is None:
            kind = self._dci_kinds.by_key[key] = self._dci_kinds.index(
                (record.search_space, dci.format, grant.mapping_type, mcs))
        try:
            row = _DCI_ROW.pack(
                record.slot_index, record.time_s, record.rnti, kind,
                record.is_retransmission, record.delivered,
                record.payload_bytes, record.n_packets, *_dci_ints(dci),
                *_grant_ints(grant), candidate.first_cce,
                candidate.aggregation_level)
        except struct.error as exc:
            raise GnbError(f"DCI record outside the log's field widths:"
                           f" {exc}: {record!r}") from exc
        self._dci_rows += row

    def add_uci(self, record: UciRecord) -> None:
        report = record.report
        kind = self._uci_kinds.index((report.harq_ack, report.cqi))
        try:
            row = _UCI_ROW.pack(
                record.slot_index, record.time_s, record.rnti, report.rnti,
                report.slot_index, report.scheduling_request, kind)
        except struct.error as exc:
            raise GnbError(f"UCI record outside the log's field widths:"
                           f" {exc}: {record!r}") from exc
        self._uci_rows += row

    def add_msg4(self, record: Msg4Record) -> None:
        self.msg4_records.append(record)

    @property
    def dci_records(self) -> list[DciRecord]:
        """Every logged DCI, rebuilt from the rows in log order."""
        kinds = self._dci_kinds.values
        records = []
        for row in _DCI_ROW.iter_unpack(self._dci_rows):
            search_space, fmt, mapping_type, mcs = kinds[row[3]]
            records.append(DciRecord(
                row[0], row[1], row[2],
                Dci(fmt, *row[_DCI_AT:_GRANT_AT]),
                Grant(*row[_GRANT_AT:_GRANT_TAIL_AT], mapping_type, mcs,
                      *row[_GRANT_TAIL_AT:_CANDIDATE_AT]),
                PdcchCandidate(*row[_CANDIDATE_AT:]),
                search_space, *row[4:_DCI_AT]))
        return records

    @property
    def uci_records(self) -> list[UciRecord]:
        """Every logged UCI, rebuilt from the rows in log order."""
        kinds = self._uci_kinds.values
        records = []
        for (slot_index, time_s, rnti, report_rnti, report_slot, request,
             kind) in _UCI_ROW.iter_unpack(self._uci_rows):
            harq_ack, cqi = kinds[kind]
            records.append(UciRecord(slot_index, time_s, rnti, UciReport(
                report_rnti, report_slot, harq_ack, request, cqi)))
        return records

    def downlink_records(self) -> list[DciRecord]:
        """DL scheduling DCIs (format 1_1, excluding broadcast)."""
        return [r for r in self.dci_records
                if r.dci.format is DciFormat.DL_1_1 and r.rnti != SI_RNTI]

    def uplink_records(self) -> list[DciRecord]:
        """UL scheduling DCIs (format 0_1)."""
        return [r for r in self.dci_records
                if r.dci.format is DciFormat.UL_0_1]


@dataclass
class SlotOutput:
    """Everything on the air in one slot (downlink and uplink)."""

    slot: SlotClock
    is_downlink: bool
    dci_records: list[DciRecord] = field(default_factory=list)
    msg4_records: list[Msg4Record] = field(default_factory=list)
    uci_records: list[UciRecord] = field(default_factory=list)
    mib: Mib | None = None
    sib1: Sib1 | None = None
    grid: ResourceGrid | None = None
    #: Time-domain SSB burst (PSS|SSS|PBCH) in iq fidelity, rendered
    #: whenever the MIB is broadcast; a waveform-bootstrapping sniffer
    #: correlates and polar-decodes this instead of reading ``mib``.
    ssb_samples: object | None = None


class _Arrivals:
    """One traffic buffer's place in the gNB's due schedule: ``start``
    is the first slot its model has not accounted for (``None`` until
    the buffer's first step), ``due`` the slot it is filed under."""

    __slots__ = ("buffer", "start", "due")

    def __init__(self, buffer: TrafficBuffer) -> None:
        self.buffer = buffer
        self.start: int | None = None
        self.due: int | None = None

    def catch_up(self, slot_index: int) -> None:
        """Account for the quiet slots before ``slot_index``."""
        if self.start is not None and self.start < slot_index:
            self.buffer.model.skip_quiet(self.start,
                                         slot_index - self.start)
        self.start = slot_index


class _SchedulerView(UeSource):
    """The gNB's connected UEs as the scheduler reads them: a context
    is built only for a UE the scheduler visits."""

    def __init__(self, gnb: "GNodeB") -> None:
        self._gnb = gnb

    def candidates(self) -> list[int]:
        """Connected UEs with downlink backlog, known uplink backlog or
        a pending retransmission, in admission order."""
        gnb = self._gnb
        known_ul = gnb._known_ul_backlog
        pending = gnb._pending_retx
        return [ue_id for ue_id, ue in gnb._ues.items()
                if ue.rnti is not None
                and (ue.dl_buffer.backlog_bytes > 0
                     or known_ul.get(ue_id, 0) > 0 or pending.get(ue_id))]

    def cqi(self, ue_id: int) -> int:
        """The last reported CQI; the table's before the first report."""
        cqi = self._gnb._reported_cqi.get(ue_id)
        return self._gnb._table.cqi(ue_id) if cqi is None else cqi

    def ewma(self, ue_id: int) -> float:
        return self._gnb._ewma.get(ue_id, 1.0)

    def context(self, ue_id: int) -> UeSchedulingContext:
        gnb = self._gnb
        ue = gnb._ues[ue_id]
        assert ue.rnti is not None
        pending = gnb._pending_retx.get(ue_id, [])
        return UeSchedulingContext(
            ue_id=ue_id, rnti=ue.rnti,
            dl_backlog_bytes=ue.dl_buffer.backlog_bytes,
            ul_backlog_bytes=gnb._known_ul_backlog.get(ue_id, 0),
            cqi=self.cqi(ue_id),
            olla_offset_db=gnb._olla_offset.get(ue_id, 0.0),
            pending_retx=list(pending),
            retx_prb_sizes={
                (harq_id, downlink):
                    gnb._harq[(ue_id, downlink)].processes[harq_id].geometry
                for harq_id, downlink in pending},
            ewma_throughput_bps=self.ewma(ue_id))


class GNodeB:
    """The cell: scheduler, RACH, HARQ, broadcast, ground-truth log."""

    def __init__(self, profile: CellProfile, scheduler: str = "rr",
                 seed: int = 0, fidelity: str = "message",
                 max_ues_per_slot: int = 8,
                 olla_target_bler: float | None = None) -> None:
        if fidelity not in ("message", "iq"):
            raise GnbError(f"unknown fidelity mode: {fidelity!r}")
        self.profile = profile
        self.fidelity = fidelity
        self._rng = np.random.default_rng(seed)
        self.log = GnbLog()
        self.rach = RachProcedure()

        self._ues: dict[int, UserEquipment] = {}
        # Every admitted UE's channel, advanced per slot; SNR and CQI
        # are computed when read.
        self._table = UeTable()
        # Traffic buffers by the slot their model is next called in;
        # the slots between bring no bytes (DESIGN.md section 10).
        # Admitted buffers join at the next step.
        self._due: dict[int, list[_Arrivals]] = {}
        self._joining: list[_Arrivals] = []
        self._arrivals: dict[int, tuple[_Arrivals, _Arrivals]] = {}
        self._next_index: int | None = None
        self._by_rnti: dict[int, UserEquipment] = {}
        # DL and UL HARQ are independent protocol entities (38.321); a
        # shared entity would interleave NDI toggles across directions
        # and break the sniffer's per-direction tracking.  Each process
        # holds the block it awaits feedback for.
        self._harq: dict[tuple[int, bool], HarqEntity] = {}
        self._pending_retx: dict[int, list[tuple[int, bool]]] = {}
        self._ewma: dict[int, float] = {}
        self._rrc_setup_cache: dict[int, RrcSetup] = {}
        # CQI as *reported* over PUCCH (used by link adaptation) and the
        # latest DL decode outcome (fed back as HARQ-ACK in UCI).
        self._reported_cqi: dict[int, int] = {}
        self._last_dl_ack: dict[int, int] = {}
        self.uci_period_slots = 8
        # Outer-loop link adaptation: when a target BLER is set, per-UE
        # dB offsets nudge the CQI-derived MCS so the realised first-
        # transmission error rate converges on the target.
        self.olla_target_bler = olla_target_bler
        self._olla_offset: dict[int, float] = {}
        # Uplink demand as the gNB actually learns it: scheduling
        # requests open a small probe grant, and buffer status reports
        # piggy-backed on PUSCH keep the estimate current.  The gNB
        # never reads UE buffers directly.
        self._known_ul_backlog: dict[int, int] = {}
        self.sr_probe_bytes = 128

        grant_config = profile.grant_config()
        search_space = profile.ue_search_space()
        scheduler_classes = {"rr": RoundRobinScheduler,
                             "pf": ProportionalFairScheduler}
        if scheduler not in scheduler_classes:
            raise GnbError(f"unknown scheduler policy: {scheduler!r}")
        self.scheduler: BaseScheduler = scheduler_classes[scheduler](
            grant_config, search_space, max_ues_per_slot=max_ues_per_slot)
        self._view = _SchedulerView(self)
        self._dci_cfg = profile.dci_size_config()
        self._common_space = profile.common_search_space()
        self._n_ctrl = profile.control_symbols

    # ------------------------------------------------------------ UEs
    def add_ue(self, ue: UserEquipment, slot_index: int = 0) -> None:
        """Admit a UE; it starts the RACH process immediately, and its
        traffic arrives from the gNB's next step on."""
        if ue.ue_id in self._ues:
            raise GnbError(f"duplicate UE id {ue.ue_id}")
        if ue.dl_buffer is ue.ul_buffer:
            raise GnbError(f"UE {ue.ue_id} feeds one buffer twice a slot")
        self._ues[ue.ue_id] = ue
        self._table.add(ue)
        arrivals = (_Arrivals(ue.dl_buffer), _Arrivals(ue.ul_buffer))
        self._arrivals[ue.ue_id] = arrivals
        self._joining.extend(arrivals)
        self.rach.request_connection(ue.ue_id, slot_index)

    def remove_ue(self, ue_id: int, time_s: float | None = None) -> None:
        """Release a UE (RRC release / departure)."""
        ue = self._ues.pop(ue_id, None)
        if ue is None:
            return
        self._table.remove(ue_id)
        for entry in self._arrivals.pop(ue_id):
            if entry.due is None:
                self._joining.remove(entry)
                continue
            entry.catch_up(self._next_index)
            self._due[entry.due].remove(entry)
        self.rach.cancel(ue_id)
        if ue.rnti is not None:
            self._by_rnti.pop(ue.rnti, None)
        if time_s is not None:
            ue.departure_time_s = time_s
        ue.disconnect()
        self._harq.pop((ue_id, True), None)
        self._harq.pop((ue_id, False), None)
        self._pending_retx.pop(ue_id, None)
        self._ewma.pop(ue_id, None)
        self._reported_cqi.pop(ue_id, None)
        self._last_dl_ack.pop(ue_id, None)
        self._olla_offset.pop(ue_id, None)
        self._known_ul_backlog.pop(ue_id, None)

    @property
    def connected_ues(self) -> list[UserEquipment]:
        """UEs holding a C-RNTI."""
        return [ue for ue in self._ues.values() if ue.is_connected]

    @property
    def ues(self) -> dict[int, UserEquipment]:
        """All admitted UEs by id (connected or in RACH)."""
        return dict(self._ues)

    def ue_by_rnti(self, rnti: int) -> UserEquipment | None:
        """Look up a connected UE by its C-RNTI."""
        return self._by_rnti.get(rnti)

    # ------------------------------------------------------ broadcast
    def _broadcast(self, slot: SlotClock, output: SlotOutput) -> None:
        """MIB on its period; SIB1 with an SI-RNTI DCI on its period."""
        if slot.slot != 0:
            return
        if slot.sfn % self.profile.mib_period_frames == 0:
            output.mib = self.profile.build_mib(slot.sfn)
            if self.fidelity == "iq":
                from repro.core.acquisition import render_cell_broadcast
                output.ssb_samples = render_cell_broadcast(
                    self.profile.cell_id, output.mib, pad_before=32,
                    pad_after=32)
        if slot.sfn % self.profile.sib1_period_frames == 0:
            output.sib1 = self.profile.build_sib1()
            self._emit_sib1_dci(slot, output)

    def _emit_sib1_dci(self, slot: SlotClock, output: SlotOutput) -> None:
        """The CORESET-0 DCI scheduling SIB1's PDSCH."""
        n_prb = min(8, self.profile.n_prb)
        first_prb = self.profile.n_prb - n_prb
        dci = Dci(format=DciFormat.DL_1_1, rnti=SI_RNTI,
                  freq_alloc_riv=riv_encode(first_prb, n_prb,
                                            self.profile.n_prb),
                  time_alloc=3, mcs=2, ndi=0, rv=0, harq_id=0, dai=0,
                  tpc=1)
        grant = dci_to_grant(dci, self.profile.grant_config())
        starts = self._common_space.candidate_cces(4, slot.index)
        candidate = PdcchCandidate(first_cce=starts[0] if starts else 0,
                                   aggregation_level=4)
        record = DciRecord(
            slot_index=slot.index, time_s=slot.time_s, rnti=SI_RNTI,
            dci=dci, grant=grant, candidate=candidate,
            search_space="common", is_retransmission=False, delivered=True,
            payload_bytes=grant.tbs_bytes, n_packets=1)
        self.log.add_dci(record)
        output.dci_records.append(record)

    # ------------------------------------------------------------ RACH
    def _handle_msg4(self, events: list[Msg4Event], slot: SlotClock,
                     output: SlotOutput, used_common_cces: set[int]) -> None:
        for event in events:
            ue = self._ues.get(event.ue_id)
            if ue is None:
                continue
            ue.connect(event.tc_rnti)
            self._by_rnti[event.tc_rnti] = ue
            self._harq[(ue.ue_id, True)] = HarqEntity()
            self._harq[(ue.ue_id, False)] = HarqEntity()
            self._pending_retx[ue.ue_id] = []
            self._ewma[ue.ue_id] = 1.0

            rrc_setup = self._rrc_setup_for(event.tc_rnti)
            record = Msg4Record(slot_index=slot.index, time_s=slot.time_s,
                                ue_id=ue.ue_id, tc_rnti=event.tc_rnti,
                                rrc_setup=rrc_setup)
            self.log.add_msg4(record)
            output.msg4_records.append(record)
            self._emit_msg4_dci(event, slot, output, used_common_cces)

    def _rrc_setup_for(self, tc_rnti: int) -> RrcSetup:
        """The RRC Setup body; identical across UEs apart from the RNTI
        (the redundancy the paper's section 3.1.2 optimisation exploits)."""
        if tc_rnti not in self._rrc_setup_cache:
            self._rrc_setup_cache[tc_rnti] = RrcSetup(
                tc_rnti=tc_rnti,
                search_space=self.profile.search_space_config(),
                dci_format_dl="1_1",
                mcs_table=self.profile.mcs_table,
                max_mimo_layers=self.profile.max_mimo_layers,
                bwp_id=self.profile.bwp_id)
        return self._rrc_setup_cache[tc_rnti]

    def _emit_msg4_dci(self, event: Msg4Event, slot: SlotClock,
                       output: SlotOutput,
                       used_common_cces: set[int]) -> None:
        """MSG 4's PDCCH transmission in the common search space."""
        n_prb = min(4, self.profile.n_prb)
        dci = Dci(format=DciFormat.DL_1_1, rnti=event.tc_rnti,
                  freq_alloc_riv=riv_encode(0, n_prb, self.profile.n_prb),
                  time_alloc=3, mcs=4, ndi=0, rv=0, harq_id=0, dai=0,
                  tpc=1)
        grant = dci_to_grant(dci, self.profile.grant_config())
        candidate = None
        for start in self._common_space.candidate_cces(4, slot.index):
            cces = set(range(start, start + 4))
            if not cces & used_common_cces:
                used_common_cces |= cces
                candidate = PdcchCandidate(first_cce=start,
                                           aggregation_level=4)
                break
        if candidate is None:
            candidate = PdcchCandidate(first_cce=0, aggregation_level=4)
        record = DciRecord(
            slot_index=slot.index, time_s=slot.time_s, rnti=event.tc_rnti,
            dci=dci, grant=grant, candidate=candidate,
            search_space="common", is_retransmission=False, delivered=True,
            payload_bytes=grant.tbs_bytes, n_packets=1)
        self.log.add_dci(record)
        output.dci_records.append(record)

    # ------------------------------------------------------- data path
    def _resolve_plan(self, plan: AllocationPlan, slot_index: int,
                      time_s: float,
                      used_processes: dict[tuple[int, bool], set[int]]) \
            -> DciRecord | None:
        """Turn an allocation plan into a transmitted DCI + data result.

        ``used_processes`` tracks HARQ ids already carrying a block this
        TTI per (UE, direction); real HARQ feedback takes several slots,
        so a freed process must not be reused within the same slot.
        """
        ue = self._ues.get(plan.ue_id)
        harq = self._harq.get((plan.ue_id, plan.downlink))
        if ue is None or harq is None or ue.rnti is None:
            return None
        used = used_processes.setdefault((plan.ue_id, plan.downlink),
                                         set())

        if plan.is_retransmission and plan.retx_harq_id is not None:
            harq_id = plan.retx_harq_id
            pending = self._pending_retx.get(plan.ue_id, [])
            if (harq_id, plan.downlink) not in pending:
                return None
            pending.remove((harq_id, plan.downlink))
            _, ndi, rv = harq.transmit_retx(harq_id)
            process = harq.processes[harq_id]
        else:
            tbs_bits = plan.tbs_bits
            result = harq.transmit_new(tbs_bits, exclude=used)
            if result is None:
                return None  # all HARQ processes busy this slot
            harq_id, ndi, rv = result
            process = harq.processes[harq_id]
            buffer = ue.dl_buffer if plan.downlink else ue.ul_buffer
            process.hold(*buffer.drain(tbs_bits // 8),
                         (plan.n_prb, plan.time_alloc, plan.n_symbols))
            if not plan.downlink:
                # The PUSCH carries a buffer status report: the gNB's
                # demand estimate snaps to the UE's remaining backlog.
                self._known_ul_backlog[plan.ue_id] = buffer.backlog_bytes
        payload_bytes, n_packets = process.payload_bytes, process.n_packets
        used.add(harq_id)

        dci = build_dci(plan, self.profile.n_prb, ndi=ndi, rv=rv,
                        harq_id=harq_id)
        grant = dci_to_grant(dci, self.scheduler.grant_config)

        # Did the UE decode it? Instantaneous SNR vs the chosen MCS.
        # Retransmissions benefit from HARQ soft combining: chase
        # combining of n copies adds ~10 log10(n) dB of effective SNR,
        # which is what makes post-retransmission drops genuinely rare
        # on real systems.
        effective_snr = self._table.snr_db(plan.ue_id)
        if plan.is_retransmission:
            n_copies = 1 + process.retx_count
            effective_snr += 10.0 * np.log10(max(n_copies, 1))
        survives = transport_block_survives(effective_snr, plan.mcs,
                                            self._rng)
        if survives:
            harq.handle_feedback(harq_id, ack=True)
            if plan.downlink:
                ue.deliver_downlink(time_s, payload_bytes, n_packets)
            else:
                ue.deliver_uplink(time_s, payload_bytes, n_packets)
        elif harq.handle_feedback(harq_id, ack=False) == "retransmit":
            self._pending_retx.setdefault(plan.ue_id, []) \
                .append((harq_id, plan.downlink))

        if plan.downlink:
            self._last_dl_ack[plan.ue_id] = 1 if survives else 0
        if self.olla_target_bler is not None \
                and not plan.is_retransmission:
            target = self.olla_target_bler
            step_up = 0.02
            offset = self._olla_offset.get(plan.ue_id, 0.0)
            if survives:
                offset += step_up * target / (1.0 - target)
            else:
                offset -= step_up
            self._olla_offset[plan.ue_id] = max(-12.0, min(3.0, offset))

        # EWMA throughput for the PF policy.
        delivered_bits = payload_bytes * 8 if survives else 0
        old = self._ewma.get(plan.ue_id, 1.0)
        self._ewma[plan.ue_id] = 0.99 * old + 0.01 * delivered_bits \
            / self.profile.slot_duration_s

        return DciRecord(
            slot_index=slot_index, time_s=time_s, rnti=ue.rnti,
            dci=dci, grant=grant, candidate=plan.candidate,
            search_space="ue", is_retransmission=plan.is_retransmission,
            delivered=survives, payload_bytes=payload_bytes,
            n_packets=n_packets)

    # ----------------------------------------------------------- grid
    def _render_grid(self, output: SlotOutput, slot_index: int) -> None:
        """IQ mode: polar-encode every PDCCH into the slot's grid.

        The slot's PDCCHs are one :func:`encode_pdcch` call.  No PDSCH
        RE is rendered: the sniffer reads the grid only through its
        PDCCH candidate gather, and the data channels travel as
        message-level grants (DESIGN.md section 2).  A candidate that
        exceeds CORESET 0's CCE count on a narrow carrier is not
        rendered; its record stays in the log, counted as a sniffer
        miss.
        """
        grid = ResourceGrid(self.profile.n_prb, self._n_ctrl)
        coreset0 = self._common_space.coreset
        dedicated = self.scheduler.search_space.coreset
        encode_pdcch(
            [(record.dci,
              coreset0 if record.search_space == "common" else dedicated,
              record.candidate) for record in output.dci_records],
            self._dci_cfg, grid, n_id=self.profile.cell_id,
            slot_index=slot_index, scs_khz=self.profile.scs_khz)
        output.grid = grid

    # ----------------------------------------------------------- step
    def step(self, slot: SlotClock) -> SlotOutput:
        """Advance the cell one TTI and return what went on the air."""
        # ``slot.index`` is computed on every read: read it once.
        index = slot.index
        time_s = slot.time_s
        output = SlotOutput(slot=slot,
                            is_downlink=self.profile.is_downlink_slot(index))

        self._arrive(index)
        self._table.advance(index)

        if output.is_downlink:
            used_common: set[int] = set()
            self._broadcast(slot, output)
            self._handle_msg4(self.rach.step(index), slot, output,
                              used_common)

            plans = self.scheduler.schedule(slot.slot, self._view)
            used_processes: dict[tuple[int, bool], set[int]] = {}
            for plan in plans:
                record = self._resolve_plan(plan, index, time_s,
                                            used_processes)
                if record is not None:
                    self.log.add_dci(record)
                    output.dci_records.append(record)

        if self.profile.is_uplink_slot(index):
            self._collect_uci(index, time_s, output)

        if self.fidelity == "iq":
            self._render_grid(output, index)
        return output

    def _arrive(self, index: int) -> None:
        """Traffic arrivals of the buffers due this slot, each filed
        again under the next slot its model may bring bytes in."""
        if self._next_index is not None and index != self._next_index:
            raise GnbError(f"step at slot {index}: the gNB steps once per "
                           f"slot, and slot {self._next_index} is next")
        self._next_index = index + 1
        due = self._due.pop(index, [])
        if self._joining:
            due += self._joining
            self._joining = []
        schedule = self._due
        for entry in due:
            entry.catch_up(index)
            buffer = entry.buffer
            buffer.arrive(index)
            entry.start = index + 1
            entry.due = index + 1 + buffer.model.quiet_slots(index + 1)
            schedule.setdefault(entry.due, []).append(entry)

    def _collect_uci(self, slot_index: int, time_s: float,
                     output: SlotOutput) -> None:
        """Connected UEs transmit periodic UCI on PUCCH (uplink slots):
        a CQI report, a scheduling request when data waits without a
        grant, and the last HARQ-ACK verdict."""
        for ue in self._ues.values():
            if ue.rnti is None \
                    or (slot_index + ue.ue_id) % self.uci_period_slots:
                continue
            ack = self._last_dl_ack.pop(ue.ue_id, None)
            wants_grant = ue.ul_buffer.backlog_bytes > 0 \
                and self._known_ul_backlog.get(ue.ue_id, 0) == 0
            cqi = self._table.cqi(ue.ue_id)
            report = UciReport(
                rnti=ue.rnti, slot_index=slot_index,
                harq_ack=(ack,) if ack is not None else (),
                scheduling_request=wants_grant,
                cqi=cqi)
            self._reported_cqi[ue.ue_id] = cqi
            if wants_grant:
                self._known_ul_backlog[ue.ue_id] = max(
                    self._known_ul_backlog.get(ue.ue_id, 0),
                    self.sr_probe_bytes)
            record = UciRecord(slot_index=slot_index,
                               time_s=time_s, rnti=ue.rnti,
                               report=report)
            self.log.add_uci(record)
            output.uci_records.append(record)
