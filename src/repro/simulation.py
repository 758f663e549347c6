"""Top-level simulation driver: cell + UEs + radio medium + observers.

``Simulation`` is the stand-in for the paper's lab: it owns one gNB, a
set of UEs (fixed or come-and-go), and the radio medium, advances the
slot clock, and hands every :class:`~repro.gnb.gnb.SlotOutput` to
registered observers.  NR-Scope attaches as an observer — passively, the
way the real tool's USRP overhears the air interface.

Typical use::

    sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=1)
    scope = NRScope.attach(sim)
    sim.run(seconds=2.0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.gnb.cell_config import CellProfile
from repro.gnb.gnb import GNodeB, SlotOutput
from repro.phy.numerology import SlotClock
from repro.radio.medium import Link, Position, RadioMedium, lab_medium
from repro.ue.channel import FadingChannel
from repro.ue.mobility import scenario as mobility_scenario
from repro.ue.population import Session
from repro.ue.traffic import BulkDownload, ConstantBitRate, OnOffTraffic, \
    PoissonPackets, TrafficBuffer, TrafficModel, VideoStream
from repro.ue.ue import UserEquipment


class SimulationError(ValueError):
    """Raised for inconsistent simulation setups."""


SlotObserver = Callable[[SlotOutput], None]

#: Traffic kinds the default "mixed" factory cycles through — videos and
#: file downloads, the workloads of the paper's section 5.2.2.
TRAFFIC_KINDS = ("video", "bulk")


def make_traffic(kind: str, slot_duration_s: float, seed: int,
                 rate_bps: float = 4e6) -> TrafficModel:
    """Build a downlink traffic model by name.

    ``mixed`` resolves to one of the four concrete kinds by seed, giving
    heterogeneous workloads like the paper's video/download mix.
    """
    if kind == "mixed":
        kind = TRAFFIC_KINDS[seed % len(TRAFFIC_KINDS)]
    if kind == "video":
        return VideoStream(rate_bps=rate_bps, slot_duration_s=slot_duration_s,
                           seed=seed)
    if kind == "bulk":
        return BulkDownload(rate_cap_bps=rate_bps * 2,
                            slot_duration_s=slot_duration_s)
    if kind == "cbr":
        return ConstantBitRate(rate_bps=rate_bps,
                               slot_duration_s=slot_duration_s)
    if kind == "poisson":
        return PoissonPackets(packets_per_second=rate_bps / (1400 * 8),
                              packet_bytes=1400,
                              slot_duration_s=slot_duration_s, seed=seed)
    if kind == "onoff":
        inner = ConstantBitRate(rate_bps=rate_bps,
                                slot_duration_s=slot_duration_s)
        return OnOffTraffic(inner=inner, slot_duration_s=slot_duration_s,
                            seed=seed)
    raise SimulationError(f"unknown traffic kind: {kind!r}")


@dataclass
class _ScheduledSession:
    session: Session
    ue: UserEquipment
    admitted: bool = False


class Simulation:
    """One cell, its UEs and the slot loop."""

    def __init__(self, profile: CellProfile, gnb: GNodeB,
                 medium: RadioMedium, seed: int = 0) -> None:
        self.profile = profile
        self.gnb = gnb
        self.medium = medium
        self.seed = seed
        self.clock = SlotClock(0, 0, profile.scs_khz)
        self._observers: list[SlotObserver] = []
        self._observer_flushes: list[Callable[[], None]] = []
        self._sessions: list[_ScheduledSession] = []
        self._index_sessions()
        self._rng = np.random.default_rng(seed)
        self.slots_run = 0

    # -------------------------------------------------------- factory
    @classmethod
    def build(cls, profile: CellProfile, n_ues: int = 1, seed: int = 0,
              traffic: str = "mixed", channel: str = "normal",
              mobility: str = "static", scheduler: str = "rr",
              fidelity: str = "message", ue_snr_db: float = 22.0,
              rate_bps: float = 4e6, ul_fraction: float = 0.2,
              max_ues_per_slot: int = 8,
              olla_target_bler: float | None = None) -> "Simulation":
        """Assemble a lab-style simulation with ``n_ues`` pre-admitted UEs."""
        if n_ues < 0:
            raise SimulationError(f"negative UE count: {n_ues}")
        gnb = GNodeB(profile, scheduler=scheduler, seed=seed,
                     fidelity=fidelity, max_ues_per_slot=max_ues_per_slot,
                     olla_target_bler=olla_target_bler)
        sim = cls(profile, gnb, lab_medium(), seed=seed)
        for index in range(n_ues):
            ue = sim.make_ue(ue_id=index, traffic=traffic, channel=channel,
                             mobility=mobility, mean_snr_db=ue_snr_db,
                             rate_bps=rate_bps, ul_fraction=ul_fraction)
            gnb.add_ue(ue, slot_index=0)
        return sim

    def make_ue(self, ue_id: int, traffic: str = "mixed",
                channel: str = "normal", mobility: str = "static",
                mean_snr_db: float = 22.0, rate_bps: float = 4e6,
                ul_fraction: float = 0.2,
                arrival_time_s: float = 0.0) -> UserEquipment:
        """Construct a UE wired to this simulation's numerology."""
        slot_s = self.profile.slot_duration_s
        seed = int(self._rng.integers(0, 2**31)) ^ ue_id
        dl_model = make_traffic(traffic, slot_s, seed, rate_bps)
        ul_model = make_traffic("poisson", slot_s, seed + 1,
                                max(rate_bps * ul_fraction, 1.0))
        fading = FadingChannel(channel, mean_snr_db, slot_s, seed=seed + 2)
        mobility_model = mobility_scenario(mobility, slot_s, seed=seed + 3)
        return UserEquipment(ue_id=ue_id,
                             dl_buffer=TrafficBuffer(dl_model),
                             ul_buffer=TrafficBuffer(ul_model),
                             channel=fading, mobility=mobility_model,
                             arrival_time_s=arrival_time_s)

    # ------------------------------------------------------ observers
    def add_observer(self, observer: SlotObserver,
                     flush: Callable[[], None] | None = None) -> None:
        """Register a per-slot callback (e.g. NR-Scope's receiver).

        ``flush`` is called when a run finishes, so observers whose
        telemetry lags the air (a windowed iq scope commits a slot up
        to about two TDD periods after its capture) can barrier before
        their telemetry is read.
        """
        self._observers.append(observer)
        if flush is not None:
            self._observer_flushes.append(flush)

    def flush_observers(self) -> None:
        """Barrier on every observer's pending slot processing."""
        for flush in self._observer_flushes:
            flush()

    # ----------------------------------------------------- population
    def schedule_sessions(self, sessions: list[Session],
                          traffic: str = "onoff",
                          channel: str = "pedestrian",
                          mean_snr_db: float = 18.0,
                          rate_bps: float = 2e6) -> None:
        """Admit a come-and-go population (paper section 5.3.1).

        Each session's UE is added at its arrival time and removed at its
        departure time as the slot loop passes them.
        """
        for session in sessions:
            ue = self.make_ue(ue_id=session.ue_id, traffic=traffic,
                              channel=channel, mean_snr_db=mean_snr_db,
                              rate_bps=rate_bps,
                              arrival_time_s=session.arrival_s)
            self._sessions.append(_ScheduledSession(session=session, ue=ue))
        self._index_sessions()

    def _index_sessions(self) -> None:
        """Derive the admission cursor and the live list from the
        sessions' flags, so a restored list needs nothing else."""
        self._waiting = sorted(
            (index for index, entry in enumerate(self._sessions)
             if not entry.admitted),
            key=lambda index: self._sessions[index].session.arrival_s)
        self._next_waiting = 0
        self._live = [entry for entry in self._sessions
                      if entry.admitted and entry.ue.departure_time_s is None]
        self._update_due()

    def _update_due(self) -> None:
        """When the next session arrives and the next one departs."""
        self._next_arrival_s = math.inf
        if self._next_waiting < len(self._waiting):
            self._next_arrival_s = self._sessions[
                self._waiting[self._next_waiting]].session.arrival_s
        self._next_departure_s = min(
            (entry.session.departure_s for entry in self._live),
            default=math.inf)

    def _admit_and_release(self, now_s: float, slot_index: int) -> None:
        """Release the live sessions that are due, then admit this
        slot's arrivals in list order, as a scan of every session would.
        A session released by someone else (a handover) just leaves the
        live list; one whose removal did not take stays due."""
        if now_s >= self._next_departure_s:
            live = []
            for entry in self._live:
                if entry.ue.departure_time_s is not None:
                    continue
                if entry.session.departure_s <= now_s:
                    self.gnb.remove_ue(entry.ue.ue_id, time_s=now_s)
                if entry.ue.departure_time_s is None:
                    live.append(entry)
            self._live = live
        waiting = self._waiting
        cursor = self._next_waiting
        while cursor < len(waiting) and \
                self._sessions[waiting[cursor]].session.arrival_s <= now_s:
            cursor += 1
        for index in sorted(waiting[self._next_waiting:cursor]):
            entry = self._sessions[index]
            self.gnb.add_ue(entry.ue, slot_index=slot_index)
            entry.admitted = True
            self._live.append(entry)
        self._next_waiting = cursor
        self._update_due()

    # ------------------------------------------------------ execution
    def step(self) -> SlotOutput:
        """Advance exactly one TTI."""
        now_s = self.clock.time_s
        if now_s >= self._next_arrival_s or now_s >= self._next_departure_s:
            self._admit_and_release(now_s, self.clock.index)
        output = self.gnb.step(self.clock)
        for observer in self._observers:
            observer(output)
        self.clock = self.clock.advance(1)
        self.slots_run += 1
        return output

    def run_slots(self, n_slots: int) -> None:
        """Advance ``n_slots`` TTIs."""
        if n_slots < 0:
            raise SimulationError(f"negative slot count: {n_slots}")
        for _ in range(n_slots):
            self.step()

    def run(self, seconds: float) -> None:
        """Advance the simulation by wall-clock ``seconds`` of air time."""
        if seconds < 0:
            raise SimulationError(f"negative duration: {seconds}")
        self.run_slots(int(round(seconds / self.profile.slot_duration_s)))
        self.flush_observers()

    @property
    def now_s(self) -> float:
        """Current simulated time."""
        return self.clock.time_s

    # -------------------------------------------------- checkpointing
    def checkpoint_state(self) -> dict:
        """Everything needed to resume this cell after a restart.

        The dict holds *live* references (the gNB with its tracked UEs,
        the scheduled-session list, the RNG) — serialise it before
        stepping the simulation again.  Observers are deliberately
        absent: a restored simulation starts with none, and the scope
        re-registers itself on attach.
        """
        return {"profile": self.profile, "gnb": self.gnb,
                "medium": self.medium, "seed": self.seed,
                "clock": self.clock, "sessions": self._sessions,
                "rng": self._rng, "slots_run": self.slots_run}

    @classmethod
    def from_state(cls, state: dict) -> "Simulation":
        """Rebuild a mid-run simulation from :meth:`checkpoint_state`."""
        sim = cls(state["profile"], state["gnb"], state["medium"],
                  seed=state["seed"])
        sim.clock = state["clock"]
        sim._sessions = state["sessions"]
        sim._index_sessions()
        sim._rng = state["rng"]
        sim.slots_run = state["slots_run"]
        return sim

    def sniffer_link(self, position: Position | None = None,
                     snr_db: float | None = None) -> Link:
        """Resolve the sniffer's receive link.

        Explicit ``snr_db`` wins; otherwise the medium's budget at
        ``position`` (defaulting to a bench position near the gNB).
        """
        if snr_db is not None:
            return Link(snr_db=snr_db)
        where = position or Position(self.medium.gnb_position.x + 1.0,
                                     self.medium.gnb_position.y)
        return self.medium.link_to(where)
