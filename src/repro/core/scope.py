"""NR-Scope: the telemetry tool this repository reproduces.

One :class:`NRScope` instance is the paper's Fig 4 box: it attaches to a
simulated cell as a passive observer, finds the cell (MIB/SIB1), sniffs
the RACH for C-RNTIs and UE configurations, decodes every tracked UE's
DCIs each TTI, and feeds the telemetry consumers — the columnar
telemetry store (every per-UE rate and packet count is a read over its
rows), HARQ/retransmission tracking and spare-capacity computation.

Since the staged-runtime refactor the class is a *facade*: it assembles
a :class:`~repro.core.runtime.SlotRuntime` whose backbone stages carry
the sequential, RNG-bearing work (sync, UCI, capture, RACH) in slot
order, whose single parallel stage runs the per-UE DCI decode as a job
of its packed payloads, window by window, and whose sink stage commits
telemetry in slot order — so however the windows fall, the session
commits the same telemetry.

Passivity is structural: the scope only reads :class:`SlotOutput`
broadcasts, never the gNB's or UEs' internal state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import SI_RNTI
from repro.core.cell_search import CellSearcher
from repro.core.dci_decoder import DecodedDci, GridDciDecoder, \
    RecordDciDecoder, SlotGather, grid_decode_job, record_decode_job
from repro.core.harq_tracker import HarqTrackerBank
from repro.core.rach_sniffer import RachSniffer
from repro.obs.context import AnyObsContext, OBS_NOOP
from repro.core.runtime import RuntimeStats, SlotContext, SlotRuntime, \
    Stage
from repro.core.spare_capacity import SpareCapacityEstimator
from repro.core.decode_model import uci_decode_succeeds
from repro.core.telemetry import TelemetryLog
from repro.core.uci_telemetry import UciObservation, UciTelemetry
from repro.phy.dci import DciFormat
from repro.phy.grant import allocation
from repro.phy.numerology import slot_duration_s
from repro.gnb.gnb import SlotOutput
from repro.radio.medium import Link


class ScopeError(ValueError):
    """Raised for invalid scope configuration."""


#: Probability the sniffer's one-off RRC Setup PDSCH decode succeeds at
#: workable SNR; PDSCH decode of a 500-byte QPSK block is far more robust
#: than a single-shot DCI, hence the high floor.
_SETUP_DECODE_SNR_FLOOR_DB = -2.0

#: How far below the downlink link SNR the sniffer hears PUCCH: the UE's
#: transmitter is much weaker than the gNB's.
UPLINK_SNR_OFFSET_DB = 6.0


@dataclass
class ScopeCounters:
    """Operational statistics of one telemetry session."""

    slots_observed: int = 0
    slots_synchronized: int = 0
    dcis_decoded: int = 0
    msg4_seen: int = 0
    msg4_missed: int = 0
    #: Always 0; read by bench_e2e's _gate_runtime.
    slots_dropped: int = 0

    @property
    def msg4_total(self) -> int:
        return self.msg4_seen + self.msg4_missed


class NRScope:
    """The passive 5G SA telemetry tool."""

    def __init__(self, link: Link, scs_khz: int = 30,
                 fidelity: str = "message", seed: int = 0,
                 window_s: float = 0.2, idle_timeout_s: float = 10.0,
                 cell_n_id: int = 0,
                 always_decode_setup: bool = False,
                 capture_impairments: bool = False,
                 waveform_bootstrap: bool = False,
                 obs: AnyObsContext | None = None,
                 cell: str | None = None) -> None:
        if fidelity not in ("message", "iq"):
            raise ScopeError(f"unknown fidelity: {fidelity!r}")
        if window_s <= 0:
            raise ScopeError(f"throughput window must be positive: "
                             f"{window_s}")
        self.link = link
        self.scs_khz = scs_khz
        self.fidelity = fidelity
        self.cell_n_id = cell_n_id
        self.window_s = window_s
        self.idle_timeout_s = idle_timeout_s
        self.always_decode_setup = always_decode_setup
        self._rng = np.random.default_rng(seed)
        # Observability bus (repro.obs).  Disabled it is the shared
        # no-op singleton; every emission site is behind ``if
        # self._obs:`` so a disabled session pays one pointer check and
        # allocates nothing.  ``cell`` becomes a constant label on
        # every event (multi-cell fleets share one bus, one globally
        # ordered stream).
        self.cell = cell
        base_obs = obs if obs is not None else OBS_NOOP
        self._obs: AnyObsContext = base_obs.bind(cell=cell) if cell \
            else base_obs

        self.searcher = CellSearcher(sniffer_snr_db=link.snr_db)
        self.counters = ScopeCounters()
        self.telemetry = TelemetryLog()
        self.harq = HarqTrackerBank()
        # UCI decoding (paper section 7 future work), heard
        # UPLINK_SNR_OFFSET_DB below the downlink.
        self.uci = UciTelemetry()
        # Front-end impairments: a slowly drifting complex gain applied
        # to every IQ capture (oscillator drift / AGC wobble).  The grid
        # decoder then equalises from the DMRS pilots like a real
        # receiver must.
        self.capture_impairments = capture_impairments
        self._capture_phase = 0.0
        self._capture_amplitude = 1.0
        # Waveform bootstrap: ignore message-layer MIBs and acquire the
        # cell from the SSB samples (PSS/SSS correlation + PBCH decode).
        self.waveform_bootstrap = waveform_bootstrap
        self.acquisitions = 0

        # Built once SIB 1 lands:
        self.rach: RachSniffer | None = None
        self.spare: SpareCapacityEstimator | None = None
        self._record_decoder: RecordDciDecoder | None = None
        self._grid_decoder: GridDciDecoder | None = None
        self._slot_duration_s = slot_duration_s(scs_khz)
        self._prune_interval_slots = int(round(1.0 / self._slot_duration_s))

        # The staged slot pipeline (paper Fig 4).  Backbone stages hold
        # every RNG draw and every tracked-table mutation, so slot order
        # alone fixes the session's randomness; the one parallel stage
        # (per-UE DCI decode) is a module-level job of its packed
        # payloads, safe to run late (iq windows share one polar
        # traversal; message windows are one slot long); the sink
        # commits telemetry in slot order.
        self._runtime = SlotRuntime(
            stages=[
                Stage("sync", self._stage_sync),
                Stage("prune", self._stage_prune),
                Stage("uci", self._stage_uci),
                Stage("capture", self._stage_capture),
                Stage("rach", self._stage_rach),
                Stage("dci", grid_decode_job if fidelity == "iq"
                      else record_decode_job, parallel=True,
                      pack=self._pack_dci, merge=self._merge_dci),
                Stage("sinks", self._stage_sinks, sink=True),
            ],
            slot_budget_s=self._slot_duration_s,
            obs=self._obs)
        if self._obs:
            self._obs.emit("session.start", fidelity=fidelity, seed=seed)

    # ----------------------------------------------------- attachment
    @classmethod
    def attach(cls, sim, snr_db: float | None = None, position=None,
               fidelity: str | None = None, **kwargs) -> "NRScope":
        """Create a scope listening to a :class:`~repro.simulation.Simulation`.

        The sniffer's link budget comes from the simulation's radio
        medium (or an explicit ``snr_db``); fidelity defaults to the
        gNB's mode so grids are only rendered when they will be used.
        """
        link = sim.sniffer_link(position=position, snr_db=snr_db)
        if "obs" in kwargs:
            kwargs.setdefault("cell", getattr(sim.profile, "name", None))
        scope = cls(link=link, scs_khz=sim.profile.scs_khz,
                    fidelity=fidelity or sim.gnb.fidelity,
                    cell_n_id=sim.profile.cell_id, **kwargs)
        sim.add_observer(scope.observe_slot, flush=scope.flush)
        return scope

    # ----------------------------------------------------- lifecycle
    def _on_synchronized(self) -> None:
        """SIB 1 landed: build the post-sync machinery."""
        knowledge = self.searcher.knowledge
        assert knowledge is not None and knowledge.n_prb is not None
        self.rach = RachSniffer(bwp_n_prb=knowledge.n_prb)
        self.spare = SpareCapacityEstimator(
            grant_config=knowledge.base_grant_config(),
            n_prb_carrier=knowledge.n_prb, store=self.telemetry.store)
        self._record_decoder = RecordDciDecoder(
            sniffer_snr_db=self.link.snr_db,
            seed=int(self._rng.integers(0, 2**31)))
        self._grid_decoder = GridDciDecoder(
            dci_cfg=knowledge.dci_size_config(), n_id=self.cell_n_id,
            noise_var=self.link.noise_variance(),
            equalize=self.capture_impairments, scs_khz=self.scs_khz)

    @property
    def tracked_rntis(self) -> list[int]:
        """RNTIs currently under telemetry."""
        if self.rach is None:
            return []
        return sorted(self.rach.tracked)

    # ------------------------------------------------------- RACH path
    def _setup_decode_succeeds(self, body=None, rnti: int = 0) -> bool:
        """The one-off RRC Setup PDSCH decode.

        In iq fidelity the Setup body really rides the coded PDSCH
        chain (CRC24A + segmented polar + scrambling + QPSK) through
        the sniffer's noisy capture; in message fidelity a calibrated
        roll stands in (the chain decodes reliably above ~0 dB).
        """
        if self.link.snr_db < _SETUP_DECODE_SNR_FLOOR_DB:
            return False
        if self.fidelity == "iq" and body is not None:
            from repro.phy.pdsch import decode_pdsch_transport_block, \
                encode_pdsch_transport_block
            payload = body.encode()
            symbols = encode_pdsch_transport_block(payload, rnti,
                                                   self.cell_n_id)
            noise_var = self.link.noise_variance()
            scale = np.sqrt(noise_var / 2.0)
            noisy = symbols \
                + self._rng.normal(0, scale, symbols.size) \
                + 1j * self._rng.normal(0, scale, symbols.size)
            decoded = decode_pdsch_transport_block(
                noisy, payload.size, rnti, self.cell_n_id, noise_var)
            return decoded is not None \
                and bool(np.array_equal(decoded, payload))
        return bool(self._rng.random() < 0.995)

    def _handle_msg4_decode(self, rnti: int, output: SlotOutput,
                            decoded: bool,
                            events: list | None = None) -> None:
        assert self.rach is not None
        if self.rach.is_tracked(rnti) or \
                rnti in self.rach.missed_rach_rntis:
            return
        slot_index = output.slot.index
        if not decoded:
            self.rach.miss(rnti)
            self.counters.msg4_missed += 1
            if events is not None:
                events.append(("msg4.miss", {
                    "slot": slot_index, "rnti": rnti, "stage": "rach",
                    "reason": "msg4_decode"}))
            return
        setup = None
        needs_setup = self.rach.cached_setup is None \
            or self.always_decode_setup
        if needs_setup:
            body = next((m.rrc_setup for m in output.msg4_records
                         if m.tc_rnti == rnti), None)
            if body is None or not self._setup_decode_succeeds(body,
                                                               rnti):
                self.rach.miss(rnti)
                self.counters.msg4_missed += 1
                if events is not None:
                    events.append(("msg4.miss", {
                        "slot": slot_index, "rnti": rnti,
                        "stage": "rach", "reason": "rrc_setup"}))
                return
            setup = body
        self.rach.discover(rnti, output.slot.time_s, setup)
        self.counters.msg4_seen += 1
        if events is not None:
            events.append(("msg4.tracked", {
                "slot": slot_index, "rnti": rnti, "stage": "rach"}))

    def _sniff_rach_message_mode(self, output: SlotOutput,
                                 events: list | None = None) -> None:
        assert self._record_decoder is not None
        for record, ok in self._record_decoder.decode_common(
                output.dci_records):
            if record.rnti == SI_RNTI:
                continue
            self._handle_msg4_decode(record.rnti, output, ok, events)

    def _sniff_rach_iq_mode(self, grid, output: SlotOutput,
                            events: list | None = None) -> None:
        assert self._grid_decoder is not None
        knowledge = self.searcher.knowledge
        assert knowledge is not None
        decoded_rntis = set()
        for item in self._grid_decoder.blind_decode_common(
                grid, output.slot.index, knowledge.common_search_space()):
            if item.dci.rnti == SI_RNTI:
                continue
            decoded_rntis.add(item.dci.rnti)
            self._handle_msg4_decode(item.dci.rnti, output,
                                     decoded=True, events=events)
        # MSG 4s transmitted this slot but not blind-decoded are missed
        # forever (the sniffer of course cannot see this; we account it
        # from ground truth for the counters only).
        for record in output.msg4_records:
            if record.tc_rnti not in decoded_rntis:
                self._handle_msg4_decode(record.tc_rnti, output,
                                         decoded=False, events=events)

    # ------------------------------------------------------- DCI path
    def _process_decoded(self, decoded: list[DecodedDci],
                         output: SlotOutput) -> None:
        assert self.rach is not None
        time_s = output.slot.time_s
        slot_index = output.slot.index
        for item in decoded:
            dci = item.dci
            ue = self.rach.tracked.get(dci.rnti)
            if ue is None:
                continue
            ue.touch(time_s)
            ue.decoded_dcis += 1
            # The grant's allocation part is all the sinks read.
            alloc = allocation(ue.grant_config, dci.freq_alloc_riv,
                               dci.time_alloc, dci.mcs)
            downlink = dci.format is DciFormat.DL_1_1
            is_retx = self.harq.observe(dci.rnti, dci.harq_id, dci.ndi,
                                        downlink)
            self.telemetry.append_decode(
                slot_index=slot_index, time_s=time_s, dci=dci,
                grant=alloc, aggregation_level=item.aggregation_level,
                is_retransmission=is_retx)
            self.counters.dcis_decoded += 1

    # ------------------------------------------------------ main loop
    def observe_slot(self, output: SlotOutput) -> None:
        """Consume one slot of the air interface."""
        self._runtime.submit(output)

    def flush(self) -> None:
        """Barrier on pending slots; telemetry is complete after."""
        self._runtime.flush()

    def close(self) -> None:
        """Flush and end the session."""
        self._runtime.flush()
        if self._obs:
            self._obs.emit(
                "session.end",
                slots=self.counters.slots_observed,
                dcis_decoded=self.counters.dcis_decoded,
                msg4_missed=self.counters.msg4_missed)

    @property
    def runtime_stats(self) -> RuntimeStats:
        """Per-stage timing/counter snapshot of the slot runtime."""
        return self._runtime.stats()

    # ---------------------------------------------------- checkpointing
    def checkpoint_state(self) -> dict:
        """Everything needed to resume this session after a restart.

        Flushes the runtime first, so the snapshot sits on a slot
        boundary with no pending decodes.  The dict holds *live*
        references (tracked tables, the columnar telemetry store, RNG
        states) — callers must serialise it before stepping the session
        again.  The runtime itself is deliberately absent: a restored
        scope brings its own.
        """
        self.flush()
        return {
            "searcher": self.searcher,
            "counters": self.counters,
            "telemetry": self.telemetry,
            "harq": self.harq,
            "uci": self.uci,
            "rach": self.rach,
            "spare": self.spare,
            "acquisitions": self.acquisitions,
            "capture_phase": self._capture_phase,
            "capture_amplitude": self._capture_amplitude,
            "rng_state": self._rng.bit_generator.state,
            "record_decoder": None if self._record_decoder is None
            else self._record_decoder.checkpoint_state(),
            "grid_decoder": None if self._grid_decoder is None
            else self._grid_decoder.checkpoint_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`checkpoint_state` snapshot.

        Call on a freshly attached scope before any slot is observed.
        The restored searcher is already synchronized, so the
        ``_on_synchronized`` hook never re-fires (its RNG draw already
        happened in the checkpointed session — the restored RNG state
        sits after it).
        """
        self.searcher = state["searcher"]
        self.counters = state["counters"]
        self.telemetry = state["telemetry"]
        self.harq = state["harq"]
        self.uci = state["uci"]
        self.rach = state["rach"]
        self.spare = state["spare"]
        self.acquisitions = state["acquisitions"]
        self._capture_phase = state["capture_phase"]
        self._capture_amplitude = state["capture_amplitude"]
        self._rng.bit_generator.state = state["rng_state"]
        record = state["record_decoder"]
        self._record_decoder = None if record is None \
            else RecordDciDecoder.from_state(record)
        grid = state["grid_decoder"]
        self._grid_decoder = None if grid is None \
            else GridDciDecoder.from_state(grid)

    # -------------------------------------------------------- stages
    def _stage_sync(self, ctx: SlotContext) -> bool | None:
        """Cell acquisition / broadcast decode; halts pre-sync slots."""
        output = ctx.output
        self.counters.slots_observed += 1
        if output.mib is not None:
            if self.waveform_bootstrap:
                mib = self._acquire_from_waveform(output)
                if mib is not None:
                    self.searcher.on_mib(mib)
            else:
                self.searcher.on_mib(output.mib)
        if output.sib1 is not None:
            was_synced = self.searcher.synchronized
            self.searcher.on_sib1(output.sib1)
            if self.searcher.synchronized and not was_synced:
                self._on_synchronized()
                if self._obs:
                    ctx.events.append(("sync.acquired", {
                        "slot": output.slot.index, "stage": "sync"}))
        if not self.searcher.synchronized:
            return False
        return None

    def _stage_prune(self, ctx: SlotContext) -> None:
        """Age out idle RNTIs once a second.

        The tracked table is only ever mutated on the backbone, so the
        prune first barriers on pending slots: every earlier slot's
        activity marks have then committed, and the surviving set is
        the same however the decode windows fell.
        """
        if self.rach is None:
            return
        output = ctx.output
        if output.slot.index % self._prune_interval_slots != 0:
            return
        self._runtime.flush()
        for rnti in self.rach.prune_idle(output.slot.time_s,
                                         self.idle_timeout_s):
            self.harq.forget(rnti)
            self.uci.forget(rnti)

    def _stage_uci(self, ctx: SlotContext) -> None:
        """Decode PUCCH reports of tracked UEs (message-level model;
        the UL waveform is not rendered in either fidelity).

        Decode decisions draw the session RNG here on the backbone;
        the activity marks they imply are deferred to the sink stage so
        they land in slot order.
        """
        output = ctx.output
        if output.uci_records and self.rach is not None:
            snr = self.link.snr_db - UPLINK_SNR_OFFSET_DB
            for record in output.uci_records:
                if not self.rach.is_tracked(record.rnti):
                    continue
                if not uci_decode_succeeds(snr, self._rng):
                    continue
                report = record.report
                self.uci.add(UciObservation(
                    slot_index=record.slot_index, time_s=record.time_s,
                    rnti=record.rnti, cqi=report.cqi,
                    scheduling_request=report.scheduling_request,
                    harq_ack=report.harq_ack))
                ctx.touch_marks.append((record.rnti, record.time_s))
        if not output.is_downlink:
            ctx.skip_decode = True

    def _stage_capture(self, ctx: SlotContext) -> None:
        """Noisy IQ capture of the slot's control region."""
        if ctx.skip_decode:
            return
        output = ctx.output
        self.counters.slots_synchronized += 1
        if self.fidelity == "iq":
            if output.grid is None:
                ctx.skip_decode = True
                return
            ctx.grid = self._capture(output)

    def _stage_rach(self, ctx: SlotContext) -> None:
        """Common-space sniffing: MSG 4 discovery, then snapshot the
        tracked search spaces for the parallel decode."""
        if ctx.skip_decode:
            return
        output = ctx.output
        assert self.rach is not None
        events = ctx.events if self._obs else None
        if self.fidelity == "iq":
            self._sniff_rach_iq_mode(ctx.grid, output, events)
        else:
            self._sniff_rach_message_mode(output, events)
        ctx.tracked = self.rach.space_snapshot()

    @staticmethod
    def _log_dci_misses(ctx: SlotContext,
                        miss_log: list[tuple[int, int, int]]) -> None:
        """Queue one ``dci.miss`` event per missed decode; the runtime
        emits the queue at commit, in slot order."""
        for slot_index, rnti, level in miss_log:
            ctx.events.append(("dci.miss", {
                "slot": slot_index, "rnti": rnti, "stage": "dci",
                "reason": "bler", "level": level}))

    def _pack_dci(self, ctx: SlotContext) -> SlotGather | dict:
        """The DCI job's payload for this slot, built on the backbone.

        In iq fidelity it is the slot's gather (its candidate REs and
        search layout; the window does the rest as one array program);
        in message fidelity, the slot's records and the decode model's
        parameters.  Neither holds the decoders themselves: the session
        RNG and counters stay on the backbone.
        """
        output = ctx.output
        if self.fidelity == "iq":
            assert self._grid_decoder is not None
            return self._grid_decoder.gather(ctx.grid, output.slot.index,
                                             ctx.tracked)
        rec = self._record_decoder
        assert rec is not None
        return {"snr_db": rec.sniffer_snr_db, "seed": rec.seed,
                "records": output.dci_records, "tracked": ctx.tracked,
                "collect_misses": bool(self._obs)}

    def _merge_dci(self, ctx: SlotContext, result) -> None:
        """Fold the job's decodes and counters back into the slot and
        the session's decoders (on the backbone)."""
        if self.fidelity == "iq":
            decoded, attempts = result
            assert self._grid_decoder is not None
            self._grid_decoder.attempts += attempts
        else:
            decoded, attempts, misses, miss_log = result
            assert self._record_decoder is not None
            self._record_decoder.attempts += attempts
            self._record_decoder.misses += misses
            if miss_log:
                self._log_dci_misses(ctx, miss_log)
        ctx.decoded = decoded

    def _stage_sinks(self, ctx: SlotContext) -> None:
        """Telemetry commit, strictly in slot order."""
        output = ctx.output
        if self.rach is not None:
            for rnti, time_s in ctx.touch_marks:
                ue = self.rach.tracked.get(rnti)
                if ue is not None:
                    ue.touch(time_s)
        if ctx.skip_decode:
            return
        assert self.spare is not None and ctx.tracked is not None
        decoded_before = self.counters.dcis_decoded
        self._process_decoded(ctx.decoded, output)
        # The slot's own tracked set (its RACH stage's snapshot), so
        # shares do not depend on how the decode windows fell.
        self.spare.observe_tti(output.slot.index, output.slot.time_s,
                               ctx.tracked.rntis)
        if self._obs:
            n_decoded = self.counters.dcis_decoded - decoded_before
            if n_decoded:
                self._obs.count("dci.decoded", value=n_decoded,
                                slot=output.slot.index, stage="sinks")

    def _acquire_from_waveform(self, output: SlotOutput):
        """PSS/SSS search + PBCH decode over the noisy SSB burst."""
        if output.ssb_samples is None or output.mib is None:
            return None
        from repro.core.acquisition import acquire_cell
        samples = np.asarray(output.ssb_samples, dtype=np.complex128)
        noise_var = self.link.noise_variance()
        scale = np.sqrt(noise_var / 2.0)
        noisy = samples + self._rng.normal(0, scale, samples.size) \
            + 1j * self._rng.normal(0, scale, samples.size)
        result = acquire_cell(noisy, output.mib.encode().size,
                              noise_var)
        if result is None or result.cell_id != self.cell_n_id:
            return None
        self.acquisitions += 1
        return result.mib

    def _capture(self, output: SlotOutput):
        """Noisy capture of the transmitted grid's control region (the
        sniffer's front end, DESIGN.md section 2)."""
        assert output.grid is not None
        captured = output.grid.clone_with_noise(self.link.snr_db,
                                                self._rng)
        if self.capture_impairments:
            # Random-walk phase (oscillator drift) and a mild amplitude
            # wobble around the AGC set point.
            self._capture_phase += float(self._rng.normal(0.0, 0.05))
            self._capture_amplitude = float(np.clip(
                self._capture_amplitude
                + self._rng.normal(0.0, 0.01), 0.7, 1.4))
            captured.data[:, :captured.n_ctrl] *= self._capture_amplitude \
                * np.exp(1j * self._capture_phase)
        return captured

    # ------------------------------------------------------ reporting
    def per_ue_throughput(self, now_s: float,
                          downlink: bool = True) -> dict[int, float]:
        """Windowed bit rate per tracked UE (paper section 3.2.2).

        "We record the TBS for every UE in each TTI, maintaining a
        sliding window to calculate the bit rate for each UE": the TBS
        of each UE's new-data rows with ``now_s - window_s < time_s``,
        summed and divided by ``window_s``.  Retransmissions are left
        out by the HARQ tracker's verdict, so a block's bits count
        once, as in the bytes tcpdump sees on the phone.  Rows from
        before the UE's current tracking (``first_seen_s``) are left
        out too: a pruned RNTI that is found again starts from zero.
        """
        if self.rach is None or not self.rach.tracked:
            return {}
        tracked = sorted(self.rach.tracked.items())
        rntis = np.array([rnti for rnti, _ in tracked])
        since = np.array([ue.first_seen_s for _, ue in tracked])
        rows = self.telemetry.store.rows_after(now_s - self.window_s)
        # Each row's place in the sorted tracked table; a row counts
        # when its RNTI is there and it belongs to the current tracking.
        at = np.minimum(np.searchsorted(rntis, rows["rnti"]), len(rntis) - 1)
        keep = (rows["downlink"] == (1 if downlink else 0)) \
            & (rows["is_retransmission"] == 0) \
            & (rntis[at] == rows["rnti"]) & (rows["time_s"] >= since[at])
        bits = np.zeros(len(rntis), dtype=np.int64)
        np.add.at(bits, at[keep], rows["tbs_bits"][keep])
        return {rnti: total / self.window_s
                for rnti, total in zip(rntis.tolist(), bits.tolist())}
