"""Tests for the integrated gNodeB."""

import numpy as np
import pytest

from repro.constants import SI_RNTI
from repro.gnb.cell_config import AMARISOFT_PROFILE, SRSRAN_PROFILE, \
    TMOBILE_N25_PROFILE
from repro.gnb.gnb import GNodeB, GnbError
from repro.phy.numerology import SlotClock
from repro.phy.pdcch import _candidate_flat_indices, _dmrs_layout
from repro.simulation import Simulation


def run_sim(profile=SRSRAN_PROFILE, n_ues=2, seconds=0.5, **kwargs):
    sim = Simulation.build(profile, n_ues=n_ues, seed=11, **kwargs)
    sim.run(seconds=seconds)
    return sim


class TestLifecycle:
    def test_ues_connect_via_rach(self):
        sim = run_sim(seconds=0.1)
        assert len(sim.gnb.connected_ues) == 2
        assert len(sim.gnb.log.msg4_records) == 2
        rntis = {ue.rnti for ue in sim.gnb.connected_ues}
        assert len(rntis) == 2

    def test_duplicate_ue_rejected(self):
        sim = run_sim(seconds=0.01)
        ue = sim.make_ue(ue_id=0)
        with pytest.raises(GnbError):
            sim.gnb.add_ue(ue)

    def test_remove_ue_clears_state(self):
        sim = run_sim(seconds=0.2)
        ue = sim.gnb.connected_ues[0]
        rnti = ue.rnti
        sim.gnb.remove_ue(ue.ue_id, time_s=sim.now_s)
        assert sim.gnb.ue_by_rnti(rnti) is None
        assert ue.departure_time_s == pytest.approx(0.2, abs=0.01)
        sim.run(seconds=0.1)  # must not crash with the UE gone

    def test_remove_mid_rach_cancels_the_attempt(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=11)
        gnb = sim.gnb
        gnb.add_ue(sim.make_ue(ue_id=0))
        sim.run_slots(1)
        gnb.remove_ue(0)
        sim.run_slots(40)
        # The departed UE neither contends nor takes a TC-RNTI.
        assert gnb.rach.in_flight == 0
        assert gnb.rach.completed == 0
        assert gnb.log.msg4_records == []
        # Its id can come back, and takes the first TC-RNTI.
        again = sim.make_ue(ue_id=0)
        gnb.add_ue(again)
        sim.run_slots(40)
        assert again.rnti == 0x4601
        assert gnb.rach.completed == 1

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(GnbError):
            GNodeB(SRSRAN_PROFILE, fidelity="magic")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(GnbError):
            GNodeB(SRSRAN_PROFILE, scheduler="fifo")


class TestBroadcast:
    def test_mib_on_period(self):
        gnb = GNodeB(SRSRAN_PROFILE)
        mibs = 0
        clock = SlotClock(0, 0, 30)
        slots_per_frame = 20
        n_frames = 5 * SRSRAN_PROFILE.mib_period_frames
        for _ in range(n_frames * slots_per_frame):
            output = gnb.step(clock)
            if output.mib is not None:
                mibs += 1
                assert output.mib.sfn == clock.sfn
            clock = clock.advance(1)
        assert mibs == 5

    def test_sib1_comes_with_si_dci(self):
        gnb = GNodeB(SRSRAN_PROFILE)
        clock = SlotClock(0, 0, 30)
        output = gnb.step(clock)
        assert output.sib1 is not None
        si_dcis = [r for r in output.dci_records if r.rnti == SI_RNTI]
        assert len(si_dcis) == 1
        assert si_dcis[0].search_space == "common"


class TestDataPath:
    def test_traffic_flows(self):
        sim = run_sim(seconds=1.0)
        dl = sim.gnb.log.downlink_records()
        assert len(dl) > 100
        for ue in sim.gnb.connected_ues:
            assert ue.delivered_dl_bits > 0

    def test_tdd_respects_dl_slots(self):
        sim = run_sim(seconds=0.5)
        for record in sim.gnb.log.dci_records:
            assert SRSRAN_PROFILE.is_downlink_slot(record.slot_index)

    def test_fdd_schedules_every_slot_kind(self):
        sim = run_sim(profile=TMOBILE_N25_PROFILE, seconds=0.5)
        assert len(sim.gnb.log.downlink_records()) > 50

    def test_grant_tbs_matches_dci_roundtrip(self):
        from repro.phy.grant import dci_to_grant
        sim = run_sim(seconds=0.3)
        config = SRSRAN_PROFILE.grant_config()
        for record in sim.gnb.log.downlink_records()[:50]:
            if record.rnti == SI_RNTI:
                continue
            assert dci_to_grant(record.dci, config).tbs_bits == \
                record.grant.tbs_bits

    def test_delivered_bytes_never_exceed_tbs(self):
        sim = run_sim(seconds=0.5)
        for record in sim.gnb.log.downlink_records():
            assert record.payload_bytes <= record.grant.tbs_bytes

    def test_bad_channel_produces_retransmissions(self):
        sim = run_sim(profile=AMARISOFT_PROFILE, n_ues=4, seconds=1.0,
                      channel="urban", ue_snr_db=14.0)
        dl = sim.gnb.log.downlink_records()
        retx = [r for r in dl if r.is_retransmission]
        assert retx, "urban channel at modest SNR must trigger HARQ retx"
        # Retransmission keeps the NDI of the original (same process).
        by_ue_harq = {}
        for record in dl:
            key = (record.rnti, record.dci.harq_id)
            if record.is_retransmission:
                assert key in by_ue_harq
                assert by_ue_harq[key] == record.dci.ndi
            by_ue_harq[key] = record.dci.ndi

    def test_harq_combining_keeps_drops_rare(self):
        """Chase combining gain accumulates across retransmissions, so
        blocks exhausting all retransmissions (drops) stay a small
        fraction even in deep correlated fading.  (Note the conditional
        retransmission failure rate can exceed the first-transmission
        rate — retransmissions happen exactly when the UE is faded.)"""
        sim = run_sim(profile=AMARISOFT_PROFILE, n_ues=4, seconds=2.0,
                      channel="urban", ue_snr_db=14.0)
        dl = [r for r in sim.gnb.log.downlink_records()
              if r.search_space == "ue"]
        firsts = [r for r in dl if not r.is_retransmission]
        retx = [r for r in dl if r.is_retransmission]
        assert retx, "need retransmissions to measure"
        dropped = sum(e.dropped_blocks
                      for e in sim.gnb._harq.values())
        assert dropped / max(len(firsts), 1) < 0.05
        # Most blocks ultimately deliver despite the harsh channel.
        delivered_blocks = sum(r.delivered for r in dl)
        assert delivered_blocks / len(firsts) > 0.95

    def test_ndi_toggles_for_new_data_per_process(self):
        sim = run_sim(seconds=1.0)
        last = {}
        for record in sim.gnb.log.downlink_records():
            if record.rnti == SI_RNTI or record.is_retransmission:
                continue
            key = (record.rnti, record.dci.harq_id)
            if key in last:
                assert record.dci.ndi != last[key], \
                    "new data must toggle NDI"
            last[key] = record.dci.ndi


class TestUplinkDemandSignalling:
    def test_no_ul_grant_before_any_sr(self):
        """The gNB learns uplink demand from scheduling requests, so no
        UL DCI may appear before the UE's first UCI opportunity."""
        sim = run_sim(seconds=0.5)
        first_sr_slot = {}
        for record in sim.gnb.log.uci_records:
            if record.report.scheduling_request:
                first_sr_slot.setdefault(record.rnti, record.slot_index)
        for record in sim.gnb.log.uplink_records():
            assert record.rnti in first_sr_slot, \
                "UL grant for a UE that never sent an SR"
            assert record.slot_index > first_sr_slot[record.rnti], \
                "UL grant before the UE's first scheduling request"

    def test_bsr_keeps_grants_flowing_without_more_srs(self):
        """Once data flows, buffer status updates (not SRs) sustain the
        uplink: grants outnumber SRs."""
        sim = run_sim(seconds=1.0)
        n_srs = sum(r.report.scheduling_request
                    for r in sim.gnb.log.uci_records)
        n_grants = len(sim.gnb.log.uplink_records())
        assert n_grants > 0
        assert n_grants > n_srs * 0.8  # grants not 1:1 throttled by SRs

    def test_cqi_reports_fill_the_log(self):
        sim = run_sim(seconds=0.5)
        cqis = [r.report.cqi for r in sim.gnb.log.uci_records
                if r.report.cqi is not None]
        assert cqis
        assert all(0 <= c <= 15 for c in cqis)


class TestIqMode:
    def test_grid_rendered_with_pdcch(self):
        sim = run_sim(seconds=0.05, fidelity="iq")
        outputs = []
        sim.add_observer(outputs.append)
        sim.run(seconds=0.05)
        with_dcis = [o for o in outputs
                     if o.grid is not None and o.dci_records]
        assert with_dcis
        profile = SRSRAN_PROFILE
        for output in with_dcis:
            # The grid holds each fitting record's PDCCH data REs (the
            # sniffer's gather indices) and pilots, and nothing else.
            want = set()
            for record in output.dci_records:
                coreset = profile.coreset0() \
                    if record.search_space == "common" \
                    else profile.dedicated_coreset()
                first = record.candidate.first_cce
                level = record.candidate.aggregation_level
                if first + level <= coreset.n_cces:
                    want.update(_candidate_flat_indices(
                        coreset, first, level).tolist())
                    want.update(_dmrs_layout(
                        coreset, first, level).flat.tolist())
            assert want
            assert np.flatnonzero(output.grid.data).tolist() == \
                sorted(want)

    def test_message_mode_has_no_grid(self):
        sim = run_sim(seconds=0.05, fidelity="message")
        outputs = []
        sim.add_observer(outputs.append)
        sim.run(seconds=0.05)
        assert all(o.grid is None for o in outputs)
