"""End-to-end integration tests crossing every subsystem boundary.

These are slower scenario tests: full sessions with churn, fidelity
parity, telemetry persistence, and the complete IQ chain from OFDM
samples to telemetry records.
"""

import numpy as np
import pytest

from repro import NRScope, Simulation, SRSRAN_PROFILE
from repro.analysis.matching import match_dcis
from repro.core.telemetry import TelemetryLog
from repro.gnb.cell_config import AMARISOFT_PROFILE, MOSOLAB_PROFILE, \
    TMOBILE_N25_PROFILE
from repro.ue.population import Session


class TestSessionWithChurn:
    def test_ues_come_and_go_cleanly(self):
        """A churning population must not corrupt tracking state."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=71)
        sessions = [Session(ue_id=i, arrival_s=0.1 * i,
                            holding_s=0.35 + 0.1 * (i % 3))
                    for i in range(12)]
        sim.schedule_sessions(sessions, traffic="cbr", rate_bps=1e6)
        scope = NRScope.attach(sim, snr_db=20.0, idle_timeout_s=0.5)
        sim.run(seconds=2.5)

        # Every MSG 4 the gNB sent was accounted (seen or missed).
        assert scope.counters.msg4_total == \
            len(sim.gnb.log.msg4_records)
        # Telemetry only contains RNTIs the gNB actually assigned.
        assigned = {m.tc_rnti for m in sim.gnb.log.msg4_records}
        assert set(scope.telemetry.rntis()) <= assigned
        # Idle pruning removed the departed UEs.
        assert len(scope.tracked_rntis) < len(sessions)

    def test_rnti_reuse_not_confused(self):
        """After pruning, a reused RNTI gets a fresh tracker state."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=1, seed=72)
        scope = NRScope.attach(sim, snr_db=20.0, idle_timeout_s=0.3)
        sim.run(seconds=0.5)
        first_rnti = scope.tracked_rntis[0]
        sim.gnb.remove_ue(0, time_s=sim.now_s)
        sim.run(seconds=1.0)  # prune fires
        assert first_rnti not in scope.tracked_rntis
        # New UE arrives; its (different) RNTI is tracked fresh.
        ue = sim.make_ue(99, traffic="cbr")
        sim.gnb.add_ue(ue, slot_index=sim.clock.index)
        sim.run(seconds=0.5)
        assert ue.rnti in scope.tracked_rntis


class TestLateAttachment:
    def test_sniffer_attached_after_rach_cannot_track(self):
        """Paper section 3.1.2: each UE gets exactly one RRC Setup; a
        sniffer that starts after the RACH can never decode that UE's
        DCIs.  Attach the scope only after the UEs connected."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=78)
        sim.run(seconds=0.5)  # UEs RACH and traffic flows, nobody listens
        assert len(sim.gnb.connected_ues) == 2

        scope = NRScope.attach(sim, snr_db=20.0)
        sim.run(seconds=1.0)
        # The scope synchronises (broadcast repeats) but the existing
        # UEs' MSG 4s are long gone: no RNTIs trackable, no telemetry.
        assert scope.searcher.synchronized
        assert scope.tracked_rntis == []
        assert len(scope.telemetry) == 0

        # A *new* UE arriving while the scope listens is tracked fine.
        late = sim.make_ue(77, traffic="bulk")
        sim.gnb.add_ue(late, slot_index=sim.clock.index)
        sim.run(seconds=0.5)
        assert late.rnti in scope.tracked_rntis
        assert scope.telemetry.for_rnti(late.rnti)


class TestFidelityParity:
    def test_same_protocol_flow_both_fidelities(self):
        """The gNB side must be bit-identical across fidelities; only
        the sniffer's decode mechanism differs."""
        logs = {}
        for fidelity in ("message", "iq"):
            sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=73,
                                   fidelity=fidelity)
            NRScope.attach(sim, snr_db=25.0)
            sim.run(seconds=0.2)
            logs[fidelity] = [
                (r.slot_index, r.rnti, r.dci.mcs, r.grant.tbs_bits)
                for r in sim.gnb.log.dci_records]
        assert logs["message"] == logs["iq"]


class TestTelemetryPersistence:
    def test_session_log_roundtrips_through_disk(self, tmp_path):
        sim = Simulation.build(MOSOLAB_PROFILE, n_ues=2, seed=74)
        scope = NRScope.attach(sim, snr_db=20.0)
        sim.run(seconds=0.5)
        path = tmp_path / "session.jsonl"
        scope.telemetry.write_jsonl(path)
        reloaded = TelemetryLog.read_jsonl(path)
        assert reloaded.records == scope.telemetry.records
        # Post-hoc analysis works identically on the reloaded log.
        for rnti in reloaded.rntis():
            assert reloaded.bits_between(rnti, 0.0, 1.0) == \
                scope.telemetry.bits_between(rnti, 0.0, 1.0)


class TestFullIqChain:
    def test_iq_session_produces_verified_telemetry(self):
        """IQ fidelity: each telemetry record came from a real polar
        decode + CRC pass over a noisy captured grid."""
        sim = Simulation.build(AMARISOFT_PROFILE, n_ues=2, seed=75,
                               fidelity="iq")
        scope = NRScope.attach(sim, snr_db=12.0)
        sim.run(seconds=0.15)
        truth = [r for r in sim.gnb.log.downlink_records()
                 if r.search_space == "ue"]
        result = match_dcis(truth, scope.telemetry.records,
                            downlink=True)
        assert result.phantom == [], \
            "CRC gating must prevent phantom decodes"
        assert result.miss_rate < 0.1
        # Every decoded record's TBS matches ground truth exactly.
        for gt, est in result.matched:
            assert est.tbs_bits == gt.grant.tbs_bits


    def test_15khz_cell_decodes_odd_frames(self):
        """At 15 kHz a frame holds 10 slots: the gNB and the sniffer
        number the slot within it the same way for the search-space
        hash and the equalizer's DMRS pilots, so frames 1, 3, ...
        decode like frames 0, 2, ..."""
        sim = Simulation.build(TMOBILE_N25_PROFILE, n_ues=2, seed=75,
                               fidelity="iq")
        scope = NRScope.attach(sim, snr_db=15.0, capture_impairments=True)
        sim.run(seconds=0.3)
        truth = [r for r in sim.gnb.log.downlink_records()
                 if r.search_space == "ue"]
        for parity in (0, 1):
            frames = [r for r in truth if r.slot_index // 10 % 2 == parity]
            result = match_dcis(frames, [
                e for e in scope.telemetry.records
                if e.slot_index // 10 % 2 == parity], downlink=True)
            assert len(frames) > 20
            assert result.phantom == []
            assert result.miss_rate < 0.1, parity


class TestCrossConsistency:
    def test_three_views_of_retransmissions_agree(self):
        """gNB HARQ stats, the DCI-stream NDI tracker and the UCI
        HARQ-ACK stream all describe the same process."""
        sim = Simulation.build(AMARISOFT_PROFILE, n_ues=4, seed=76,
                               channel="vehicle", ue_snr_db=15.0)
        scope = NRScope.attach(sim, snr_db=22.0)
        sim.run(seconds=3.0)

        truth = [r for r in sim.gnb.log.downlink_records()
                 if r.search_space == "ue"]
        gnb_ratio = sum(r.is_retransmission for r in truth) / len(truth)
        dci_ratio = scope.telemetry.retransmission_ratio()
        assert dci_ratio == pytest.approx(gnb_ratio, abs=0.05)

        # UCI NACK ratio approximates the first-transmission BLER,
        # which upper-bounds and co-varies with the retx ratio.
        nack_ratios = [scope.uci.nack_ratio(r)
                       for r in scope.uci.rntis()]
        if nack_ratios:
            assert 0.0 <= float(np.mean(nack_ratios)) <= 1.0
            assert (float(np.mean(nack_ratios)) > 0.02) == \
                (gnb_ratio > 0.02)

    def test_spare_plus_used_covers_carrier(self):
        """Per TTI: used PRBs + N * fair share <= carrier width."""
        sim = Simulation.build(MOSOLAB_PROFILE, n_ues=2, seed=77)
        scope = NRScope.attach(sim, snr_db=20.0)
        sim.run(seconds=0.5)
        for tti in scope.spare.tti_table():
            if not tti["n_shares"]:
                continue
            total_spare = tti["n_shares"] * tti["spare_prbs"]
            assert tti["used_prbs"] + total_spare <= \
                MOSOLAB_PROFILE.n_prb
