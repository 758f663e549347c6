"""Stress and soak scenarios: scale, churn, and state boundedness."""

import pytest

from repro import NRScope, Simulation
from repro.analysis.matching import match_dcis
from repro.gnb.cell_config import AMARISOFT_PROFILE, SRSRAN_PROFILE
from repro.ue.population import ComeAndGoProcess, PopulationProfile


class TestScale:
    def test_sixty_four_ues_full_session(self):
        """The paper's largest lab configuration, end to end."""
        sim = Simulation.build(AMARISOFT_PROFILE, n_ues=64, seed=91,
                               channel="pedestrian", traffic="cbr",
                               rate_bps=3e5)
        scope = NRScope.attach(sim, snr_db=20.0)
        sim.run(seconds=1.5)

        assert len(sim.gnb.connected_ues) == 64
        # Contention delays but does not lose anyone.
        assert sim.gnb.rach.completed == 64
        assert scope.counters.msg4_seen + scope.counters.msg4_missed \
            == 64
        truth = [r for r in sim.gnb.log.downlink_records()
                 if r.search_space == "ue"]
        result = match_dcis(truth, scope.telemetry.records,
                            downlink=True)
        assert result.miss_rate < 0.02
        assert result.phantom == []
        # PDCCH capacity forces scheduling to spread across slots: at
        # most a handful of UEs per TTI, everyone over the session.
        served = {r.rnti for r in truth}
        assert len(served) >= 56  # nearly every UE got downlink data

    def test_heavy_churn_with_ongoing_telemetry(self):
        """Hundreds of short sessions must not corrupt sniffer state."""
        profile = PopulationProfile("stress", arrivals_per_second=8.0,
                                    holding_p90_s=1.5)
        sessions = ComeAndGoProcess(profile, seed=92).generate(4.0)
        assert len(sessions) > 20
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=92)
        sim.schedule_sessions(sessions, traffic="cbr", rate_bps=5e5)
        scope = NRScope.attach(sim, snr_db=20.0, idle_timeout_s=1.0)
        sim.run(seconds=5.0)

        # Every RACH completion was classified exactly once.
        assert scope.counters.msg4_total == \
            len(sim.gnb.log.msg4_records)
        # Idle pruning bounds the tracked set well below total arrivals.
        assert len(scope.tracked_rntis) < len(sessions)
        # Telemetry RNTIs are a subset of the RNTIs actually assigned.
        assigned = {m.tc_rnti for m in sim.gnb.log.msg4_records}
        assert set(scope.telemetry.rntis()) <= assigned


class TestStateBoundedness:
    def test_gnb_per_ue_state_is_reclaimed(self):
        """After churn, the gNB's per-UE maps hold only current UEs."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=6, seed=93)
        sim.run(seconds=0.3)
        for ue_id in range(6):
            sim.gnb.remove_ue(ue_id, time_s=sim.now_s)
        sim.run(seconds=0.1)
        gnb = sim.gnb
        assert gnb.ues == {}
        # No HARQ state of a removed UE remains: not its entities (and
        # with them the blocks their processes held), nor its pending
        # retransmissions.
        assert gnb._harq == {}
        assert gnb._pending_retx == {}
        assert gnb._reported_cqi == {}
        assert gnb._known_ul_backlog == {}

    def test_sniffer_state_is_reclaimed_after_pruning(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=3, seed=94)
        scope = NRScope.attach(sim, snr_db=20.0, idle_timeout_s=0.2)
        sim.run(seconds=0.4)
        rntis = list(scope.tracked_rntis)
        assert rntis
        for ue_id in range(3):
            sim.gnb.remove_ue(ue_id, time_s=sim.now_s)
        sim.run(seconds=1.0)
        assert scope.tracked_rntis == []
        assert scope.harq.rntis() == []
        # Telemetry history is retained (it is the session log), but
        # the live trackers were all reclaimed.
        for rnti in rntis:
            assert scope.telemetry.for_rnti(rnti)
        assert all(rnti not in scope.uci.rntis() for rnti in rntis)

    def test_spare_history_grows_linearly_not_quadratically(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=1, seed=95)
        scope = NRScope.attach(sim, snr_db=20.0)
        sim.run(seconds=0.5)
        first = scope.spare.n_ttis
        sim.run(seconds=0.5)
        second = scope.spare.n_ttis
        # One entry per synchronized downlink slot.
        assert second == pytest.approx(2 * first, rel=0.2)
