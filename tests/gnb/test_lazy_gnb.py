"""The gNB visits only the UEs a slot needs, with per-slot output.

* Due schedule: the oracle is a gNB that calls every admitted UE's
  ``advance_slot`` each slot, as the gNB did before the due schedule.
  Two worlds of two cells each see the same random admissions, removals
  and handovers; every buffer, every log record and every model state
  must match.
* Lazy contexts: the oracle builds every candidate's context before the
  policy ranks them, and ranks with the policies' former context-based
  orders, verbatim.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.gnb.cell_config import SRSRAN_PROFILE
from repro.gnb import gnb as gnb_module
from repro.gnb.gnb import GNodeB, GnbError
from repro.gnb.scheduler import ContextList, ProportionalFairScheduler, \
    RoundRobinScheduler, UeSchedulingContext
from repro.phy.numerology import SlotClock
from repro.simulation import Simulation, make_traffic
from repro.ue.channel import cqi_to_efficiency
from repro.ue.population import Session
from repro.ue.channel import FadingChannel
from repro.ue.mobility import scenario
from repro.ue.traffic import ControlledRate, TrafficBuffer
from repro.ue.ue import UserEquipment

SLOT_S = SRSRAN_PROFILE.slot_duration_s
KINDS = ("cbr", "poisson", "video", "bulk", "onoff", "controlled")


class PerSlotGnb(GNodeB):
    """Calls every admitted UE's traffic models every slot."""

    def _arrive(self, index: int) -> None:
        for ue in self._ues.values():
            ue.advance_slot(index)


def make_ue(ue_id: int) -> UserEquipment:
    kind = KINDS[ue_id % len(KINDS)]
    seed = 7919 * ue_id + 1
    if kind == "controlled":
        dl_model = ControlledRate(slot_duration_s=SLOT_S,
                                  initial_rate_bps=3e6)
    else:
        dl_model = make_traffic(kind, SLOT_S, seed, rate_bps=3e6)
    ul_model = make_traffic("poisson", SLOT_S, seed + 1, rate_bps=2e5)
    return UserEquipment(
        ue_id=ue_id, dl_buffer=TrafficBuffer(dl_model),
        ul_buffer=TrafficBuffer(ul_model),
        channel=FadingChannel("pedestrian", 16.0, SLOT_S, seed=seed + 2),
        mobility=scenario("moving" if ue_id % 4 == 1 else "static",
                          SLOT_S, seed=seed + 3))


class World:
    """Two cells and the UEs ever admitted to them."""

    def __init__(self, gnb_class: type) -> None:
        self.cells = [gnb_class(SRSRAN_PROFILE, seed=seed)
                      for seed in (3, 4)]
        self.ues: dict[int, UserEquipment] = {}
        self.where: dict[int, int] = {}     # admitted UE id -> cell

    def buffers(self) -> list:
        return [(ue_id, buffer.backlog_bytes, list(buffer._packets))
                for ue_id, ue in sorted(self.ues.items())
                for buffer in (ue.dl_buffer, ue.ul_buffer)]

    def logs(self) -> list:
        return [[repr(r) for r in records] for gnb in self.cells
                for records in (gnb.log.dci_records, gnb.log.uci_records,
                                gnb.log.msg4_records)]


def plan_events(seed: int, n_slots: int) -> dict[int, list[tuple]]:
    """Random admissions, removals and handovers, by slot."""
    rng = np.random.default_rng(seed)
    events: dict[int, list[tuple]] = {}
    next_id = 0
    admitted: list[int] = []
    for slot in range(n_slots):
        todo = []
        if rng.random() < 0.06 or slot == 0:
            todo.append(("add", next_id, int(rng.integers(2)),
                         bool(rng.random() < 0.5)))
            admitted.append(next_id)
            next_id += 1
        if admitted and rng.random() < 0.015:
            todo.append(("remove", admitted.pop(
                int(rng.integers(len(admitted))))))
        if admitted and rng.random() < 0.02:
            todo.append(("handover", admitted[
                int(rng.integers(len(admitted)))]))
        if todo:
            events[slot] = todo
    return events


def apply(world: World, slot: int, todo: list[tuple]) -> None:
    for event in todo:
        if event[0] == "add":
            _, ue_id, cell, default_slot = event
            ue = world.ues[ue_id] = make_ue(ue_id)
            if default_slot:
                world.cells[cell].add_ue(ue)
            else:
                world.cells[cell].add_ue(ue, slot_index=slot)
            world.where[ue_id] = cell
        elif event[0] == "remove":
            cell = world.where.pop(event[1])
            world.cells[cell].remove_ue(event[1], time_s=slot * SLOT_S)
        else:
            ue_id = event[1]
            cell = world.where[ue_id]
            world.cells[cell].remove_ue(ue_id)
            world.where[ue_id] = 1 - cell
            world.cells[1 - cell].add_ue(world.ues[ue_id], slot_index=slot)


def step(world: World, clock: SlotClock) -> None:
    for ue in world.ues.values():
        model = ue.dl_buffer.model
        if isinstance(model, ControlledRate) and clock.index % 150 == 0:
            model.set_rate(1e6 * (clock.index % 4))
    for gnb in world.cells:
        gnb.step(clock)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_due_arrivals_equal_per_slot_calls(seed):
    n_slots = 1600
    events = plan_events(seed, n_slots)
    lazy, oracle = World(GNodeB), World(PerSlotGnb)
    clock = SlotClock(0, 0, SRSRAN_PROFILE.scs_khz)
    for slot in range(n_slots):
        if slot == 777:                         # checkpoint and restore
            lazy = pickle.loads(pickle.dumps(lazy))
        for world in (lazy, oracle):
            apply(world, slot, events.get(slot, []))
            step(world, clock)
        assert lazy.buffers() == oracle.buffers(), f"slot {slot}"
        clock = clock.advance(1)
    assert lazy.logs() == oracle.logs()
    assert sum(len(log) for log in lazy.logs()) > 1000
    # Released, every UE's models continue exactly as the oracle's.
    for world in (lazy, oracle):
        for ue_id, cell in sorted(world.where.items()):
            world.cells[cell].remove_ue(ue_id)
    for slot in range(n_slots, n_slots + 400):
        for ue_id in sorted(lazy.ues):
            for ue in (lazy.ues[ue_id], oracle.ues[ue_id]):
                ue.advance_slot(slot)
        assert lazy.buffers() == oracle.buffers()


def test_admission_joins_at_the_next_step():
    # ``add_ue(ue)`` with its default slot, deep into a run, starts the
    # UE's arrivals at the gNB's next slot, as per-slot calls did.
    lazy, oracle = World(GNodeB), World(PerSlotGnb)
    clock = SlotClock(0, 0, SRSRAN_PROFILE.scs_khz)
    for slot in range(900):
        for world in (lazy, oracle):
            if slot == 613:
                ue = world.ues[2] = make_ue(2)      # a video UE
                world.cells[0].add_ue(ue)
            step(world, clock)
        assert lazy.buffers() == oracle.buffers()
        clock = clock.advance(1)
    assert lazy.ues[2].dl_buffer.backlog_bytes \
        + lazy.ues[2].delivered_dl_bits > 0


def test_steps_must_be_consecutive():
    gnb = GNodeB(SRSRAN_PROFILE)
    clock = SlotClock(0, 0, SRSRAN_PROFILE.scs_khz)
    gnb.step(clock)
    with pytest.raises(GnbError, match="slot 1 is next"):
        gnb.step(clock.advance(2))


def test_one_buffer_fed_twice_is_refused():
    ue = make_ue(0)
    twin = UserEquipment(ue_id=1, dl_buffer=ue.dl_buffer,
                         ul_buffer=ue.dl_buffer, channel=ue.channel)
    with pytest.raises(GnbError, match="one buffer"):
        GNodeB(SRSRAN_PROFILE).add_ue(twin)


# ------------------------------------------------------ lazy contexts
def eager_contexts(gnb: GNodeB) -> list[UeSchedulingContext]:
    """Every candidate's context, built up front (the gNB's former
    ``_contexts``, with the retransmission sizes read from the blocks
    the UE's HARQ processes hold)."""
    contexts = []
    for ue in gnb._ues.values():
        if ue.rnti is None:
            continue
        ue_id = ue.ue_id
        dl_backlog = ue.dl_buffer.backlog_bytes
        ul_backlog = gnb._known_ul_backlog.get(ue_id, 0)
        pending = gnb._pending_retx.get(ue_id, [])
        if dl_backlog <= 0 and ul_backlog <= 0 and not pending:
            continue
        cqi = gnb._reported_cqi.get(ue_id)
        contexts.append(UeSchedulingContext(
            ue_id=ue_id, rnti=ue.rnti,
            dl_backlog_bytes=dl_backlog,
            ul_backlog_bytes=ul_backlog,
            cqi=gnb._table.cqi(ue_id) if cqi is None else cqi,
            olla_offset_db=gnb._olla_offset.get(ue_id, 0.0),
            pending_retx=list(pending),
            retx_prb_sizes={
                (process.process_id, downlink): process.geometry
                for downlink in (True, False)
                for process in gnb._harq[(ue_id, downlink)].processes
                if process.active},
            ewma_throughput_bps=gnb._ewma.get(ue_id, 1.0)))
    return contexts


def session_sim(policy: str, eager: bool) -> Simulation:
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=5,
                           scheduler=policy, olla_target_bler=0.1)
    rng = np.random.default_rng(5)
    sim.schedule_sessions(
        [Session(ue_id=i, arrival_s=float(i * 0.01 + rng.uniform(0, 0.004)),
                 holding_s=0.25 + 0.5 * float(rng.random()))
         for i in range(32)], traffic="mixed", channel="vehicle",
        mean_snr_db=14.0)
    if eager:
        scheduler = sim.gnb.scheduler
        schedule = scheduler.schedule
        scheduler.schedule = lambda slot_index, ues: schedule(
            slot_index, eager_contexts(sim.gnb))
        scheduler.search_space = EndlessCoreset(scheduler.search_space)
    return sim


class EndlessCoreset:
    """A search space whose CORESET never reads as full, so the
    scheduler's loop visits every candidate, as it did before it
    stopped at a full CORESET."""

    def __init__(self, space) -> None:
        self._space = space
        self.coreset = SimpleNamespace(n_cces=10**9)

    def __getattr__(self, name: str):
        return getattr(self._space, name)


@pytest.mark.parametrize("policy", ["rr", "pf"])
def test_lazy_contexts_plan_as_eager_ones(policy, monkeypatch):
    eager = session_sim(policy, eager=True)
    eager.run(0.8)

    counts = {"built": 0, "listed": 0}
    view = gnb_module._SchedulerView
    context, candidates = view.context, view.candidates

    def counted_context(self, ue_id):
        counts["built"] += 1
        return context(self, ue_id)

    def counted_candidates(self):
        listed = candidates(self)
        counts["listed"] += len(listed)
        return listed

    monkeypatch.setattr(view, "context", counted_context)
    monkeypatch.setattr(view, "candidates", counted_candidates)
    lazy = session_sim(policy, eager=False)
    lazy.run(0.8)
    assert [repr(r) for r in lazy.gnb.log.dci_records] == \
        [repr(r) for r in eager.gnb.log.dci_records]
    assert sum(r.is_retransmission for r in lazy.gnb.log.dci_records) > 20
    # Contexts are built for the UEs the loop reaches, not every
    # candidate: the CORESET fills after a few.
    assert 0 < 5 * counts["built"] < counts["listed"]


class FormerRoundRobin:
    def __init__(self) -> None:
        self._rr_offset = 0

    def order(self, ues):
        if not ues:
            return []
        ordered = sorted(ues, key=lambda u: u.ue_id)
        self._rr_offset = (self._rr_offset + 1) % len(ordered)
        return ordered[self._rr_offset:] + ordered[:self._rr_offset]


class FormerProportionalFair:
    def order(self, ues):
        def metric(ue):
            rate = cqi_to_efficiency(max(ue.cqi, 1))
            return rate / max(ue.ewma_throughput_bps, 1.0)

        return sorted(ues, key=metric, reverse=True)


@pytest.mark.parametrize("policy, former", [
    (RoundRobinScheduler, FormerRoundRobin),
    (ProportionalFairScheduler, FormerProportionalFair)])
def test_policies_rank_ids_as_they_ranked_contexts(policy, former):
    scheduler = policy(SRSRAN_PROFILE.grant_config(),
                       SRSRAN_PROFILE.ue_search_space())
    oracle = former()
    rng = np.random.default_rng(8)
    for _ in range(400):
        ids = rng.permutation(40)[:int(rng.integers(0, 40))].tolist()
        ues = [UeSchedulingContext(
            ue_id=ue_id, rnti=0x4601 + ue_id,
            dl_backlog_bytes=int(rng.integers(0, 3)) * 500,
            ul_backlog_bytes=int(rng.integers(0, 2)) * 100,
            cqi=int(rng.integers(0, 16)),
            pending_retx=[(0, True)] if rng.random() < 0.2 else [],
            # Coarse values make ties, which both orders keep stable.
            ewma_throughput_bps=float(rng.integers(0, 4)) * 1e6)
            for ue_id in ids]
        source = ContextList(ues)
        want = [u.ue_id for u in oracle.order(
            [u for u in ues if u.dl_backlog_bytes > 0
             or u.ul_backlog_bytes > 0 or u.pending_retx])]
        assert scheduler._order(source.candidates(), source) == want
