"""Tests for the top-level simulation driver."""

import pytest

from repro.constants import TTI_DURATION_S
from repro.gnb.cell_config import MOSOLAB_PROFILE, SRSRAN_PROFILE
from repro.simulation import Simulation, SimulationError, make_traffic
from repro.ue.population import Session
from repro.ue.traffic import BulkDownload, ConstantBitRate, \
    PoissonPackets, VideoStream

SLOT_S = TTI_DURATION_S[30]


class TestMakeTraffic:
    def test_kinds(self):
        assert isinstance(make_traffic("video", SLOT_S, 0), VideoStream)
        assert isinstance(make_traffic("bulk", SLOT_S, 0), BulkDownload)
        assert isinstance(make_traffic("cbr", SLOT_S, 0), ConstantBitRate)
        assert isinstance(make_traffic("poisson", SLOT_S, 0),
                          PoissonPackets)

    def test_mixed_resolves_by_seed(self):
        kinds = {type(make_traffic("mixed", SLOT_S, seed))
                 for seed in range(4)}
        assert kinds == {VideoStream, BulkDownload}

    def test_unknown_kind(self):
        with pytest.raises(SimulationError):
            make_traffic("carrier-pigeon", SLOT_S, 0)


class TestBuild:
    def test_builds_with_ues(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=3, seed=1)
        assert len(sim.gnb.ues) == 3
        assert sim.now_s == 0.0

    def test_negative_ues_rejected(self):
        with pytest.raises(SimulationError):
            Simulation.build(SRSRAN_PROFILE, n_ues=-1)

    def test_run_advances_clock(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=1, seed=2)
        sim.run(seconds=0.1)
        assert sim.now_s == pytest.approx(0.1)
        assert sim.slots_run == 200

    def test_run_negative_rejected(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0)
        with pytest.raises(SimulationError):
            sim.run(seconds=-1.0)
        with pytest.raises(SimulationError):
            sim.run_slots(-5)

    def test_determinism(self):
        def run_once():
            sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=7)
            sim.run(seconds=0.5)
            return [(r.slot_index, r.rnti, r.grant.tbs_bits)
                    for r in sim.gnb.log.dci_records]

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        def run_with(seed):
            sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=seed)
            sim.run(seconds=0.5)
            return [(r.slot_index, r.rnti) for r in
                    sim.gnb.log.dci_records]

        assert run_with(1) != run_with(2)


class TestObservers:
    def test_observer_sees_every_slot(self):
        sim = Simulation.build(MOSOLAB_PROFILE, n_ues=1, seed=3)
        slots = []
        sim.add_observer(lambda out: slots.append(out.slot.index))
        sim.run_slots(50)
        assert slots == list(range(50))

    def test_multiple_observers(self):
        sim = Simulation.build(MOSOLAB_PROFILE, n_ues=1, seed=3)
        counts = [0, 0]
        sim.add_observer(lambda out: counts.__setitem__(
            0, counts[0] + 1))
        sim.add_observer(lambda out: counts.__setitem__(
            1, counts[1] + 1))
        sim.run_slots(10)
        assert counts == [10, 10]


class TestSessions:
    def test_sessions_admit_and_release(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=4)
        sessions = [Session(ue_id=100, arrival_s=0.05, holding_s=0.2),
                    Session(ue_id=101, arrival_s=0.15, holding_s=0.4)]
        sim.schedule_sessions(sessions)
        sim.run(seconds=0.1)
        assert set(sim.gnb.ues) == {100}
        sim.run(seconds=0.1)   # t=0.2: 101 admitted
        assert set(sim.gnb.ues) == {100, 101}
        sim.run(seconds=0.1)   # t=0.3: 100 departed at 0.25
        assert set(sim.gnb.ues) == {101}
        sim.run(seconds=0.4)   # t=0.7: 101 departed at 0.55
        assert sim.gnb.ues == {}

    def test_departed_ue_has_departure_time(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=4)
        sim.schedule_sessions([Session(ue_id=7, arrival_s=0.0,
                                       holding_s=0.1)])
        sim.run(seconds=0.3)
        entry = sim._sessions[0]
        assert entry.ue.departure_time_s == pytest.approx(0.1, abs=0.01)

    def test_same_slot_arrivals_are_admitted_in_list_order(self):
        # Arrivals due in one slot join in list order, not arrival order,
        # so the gNB's add order and RACH requests match a full scan.
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=4)
        sim.schedule_sessions([
            Session(ue_id=1, arrival_s=0.0102, holding_s=0.05),
            Session(ue_id=2, arrival_s=0.0101, holding_s=0.0),
            Session(ue_id=3, arrival_s=0.02, holding_s=0.05)])
        sim.run_slots(21)                   # t = 0.0100 s: nobody due
        assert sim.gnb.ues == {}
        sim.step()                          # t = 0.0105 s
        assert list(sim.gnb.ues) == [1, 2]
        sim.step()            # UE 2 leaves the slot after it arrived
        assert list(sim.gnb.ues) == [1]
        sim.run(seconds=0.1)
        assert sim.gnb.ues == {}
        assert [e.ue.departure_time_s is not None
                for e in sim._sessions] == [True, True, True]

    def test_sessions_scheduled_mid_run_join_when_due(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=4)
        sim.schedule_sessions([Session(ue_id=5, arrival_s=0.0,
                                       holding_s=1.0)])
        sim.run(seconds=0.05)
        sim.schedule_sessions([Session(ue_id=6, arrival_s=0.01,
                                       holding_s=1.0),
                               Session(ue_id=7, arrival_s=0.08,
                                       holding_s=1.0)])
        sim.step()
        assert list(sim.gnb.ues) == [5, 6]
        sim.run(seconds=0.05)
        assert list(sim.gnb.ues) == [5, 6, 7]


class TestSnifferLink:
    def test_explicit_snr_wins(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0)
        assert sim.sniffer_link(snr_db=7.5).snr_db == 7.5

    def test_default_position_near_gnb(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0)
        link = sim.sniffer_link()
        assert link.snr_db > 15.0  # bench conditions
