"""Tests for aggregation analysis, cell search, RACH sniffer, feedback."""

import pytest

from repro.core.cell_search import BROADCAST_SNR_FLOOR_DB, CellSearcher
from repro.core.feedback import FeedbackError, FeedbackService
from repro.core.rach_sniffer import RachSniffer, RachSnifferError
from repro.core.telemetry import TelemetryLog, TelemetryRecord
from repro.experiments.fig16_scenarios import AggregationComparison, \
    packets_per_tti
from repro.gnb.cell_config import SRSRAN_PROFILE
from repro.rrc.messages import RrcSetup


class TestAggregation:
    """Fig 16d's packets per TTI, read from the telemetry store."""

    @staticmethod
    def log(*rows):
        log = TelemetryLog()
        for rnti, tbs_bits, downlink, retx in rows:
            log.add(TelemetryRecord(
                slot_index=0, time_s=0.0, rnti=rnti, downlink=downlink,
                tbs_bits=tbs_bits, n_prb=10, n_symbols=12, mcs_index=10,
                harq_id=0, ndi=0, rv=0, is_retransmission=retx,
                aggregation_level=4))
        return log

    def test_packets_per_tti(self):
        log = self.log((1, 33600, True, False))
        assert packets_per_tti(log) == [3.0]

    def test_cdf(self):
        comparison = AggregationComparison(spare=[4.0, 1.0, 3.0, 2.0],
                                           competing=[])
        cdf = comparison.spare_cdf()
        assert cdf[0] == (1.0, 0.25)
        assert cdf[-1] == (4.0, 1.0)
        assert comparison.competing_cdf() == []

    def test_per_rnti_filter(self):
        # Uplink rows and retransmissions carry no new downlink packets.
        log = self.log((1, 11200, True, False), (2, 22400, True, False),
                       (1, 11200, True, True), (1, 11200, False, False))
        assert packets_per_tti(log, 1) == [1.0]
        assert packets_per_tti(log) == [1.0, 2.0]
        assert packets_per_tti(log, 99) == []


class TestCellSearcher:
    def test_full_acquisition(self):
        searcher = CellSearcher(sniffer_snr_db=20.0)
        assert not searcher.synchronized
        assert searcher.on_mib(SRSRAN_PROFILE.build_mib(5))
        assert not searcher.synchronized
        assert searcher.on_sib1(SRSRAN_PROFILE.build_sib1())
        assert searcher.synchronized
        knowledge = searcher.knowledge
        assert knowledge.n_prb == SRSRAN_PROFILE.n_prb
        assert knowledge.is_tdd
        assert knowledge.coreset0 is not None
        assert knowledge.dci_size_config().n_prb_bwp == 51

    def test_sib1_before_mib_ignored(self):
        searcher = CellSearcher(sniffer_snr_db=20.0)
        assert not searcher.on_sib1(SRSRAN_PROFILE.build_sib1())
        assert not searcher.synchronized

    def test_too_weak_to_hear(self):
        searcher = CellSearcher(
            sniffer_snr_db=BROADCAST_SNR_FLOOR_DB - 1.0)
        assert not searcher.on_mib(SRSRAN_PROFILE.build_mib(0))
        assert not searcher.synchronized

    def test_barred_cell_ignored(self):
        from dataclasses import replace
        searcher = CellSearcher(sniffer_snr_db=20.0)
        barred = replace(SRSRAN_PROFILE.build_mib(0), cell_barred=True)
        assert not searcher.on_mib(barred)


class TestRachSniffer:
    def make(self):
        return RachSniffer(bwp_n_prb=51)

    def setup_body(self, rnti=0x4601):
        return RrcSetup(tc_rnti=rnti,
                        search_space=SRSRAN_PROFILE.search_space_config(),
                        mcs_table="qam256", max_mimo_layers=2)

    def test_first_discovery_needs_setup(self):
        sniffer = self.make()
        with pytest.raises(RachSnifferError):
            sniffer.discover(0x4601, 0.0, setup=None)

    def test_setup_cached_for_later_ues(self):
        sniffer = self.make()
        sniffer.discover(0x4601, 0.0, self.setup_body())
        ue2 = sniffer.discover(0x4602, 1.0, setup=None)
        assert sniffer.setup_pdsch_decodes == 1
        assert ue2.grant_config.mcs_table == "qam256"
        assert ue2.grant_config.n_layers == 2

    def test_duplicate_discovery_rejected(self):
        sniffer = self.make()
        sniffer.discover(0x4601, 0.0, self.setup_body())
        with pytest.raises(RachSnifferError):
            sniffer.discover(0x4601, 0.0, None)

    def test_missed_rach_is_permanent(self):
        sniffer = self.make()
        sniffer.miss(0x7777)
        assert 0x7777 in sniffer.missed_rach_rntis
        assert not sniffer.is_tracked(0x7777)

    def test_prune_idle(self):
        sniffer = self.make()
        sniffer.discover(0x4601, 0.0, self.setup_body())
        sniffer.discover(0x4602, 5.0, None)
        sniffer.tracked[0x4602].touch(9.0)
        stale = sniffer.prune_idle(now_s=11.0, idle_timeout_s=10.0)
        assert stale == [0x4601]
        assert sniffer.is_tracked(0x4602)

    def test_search_space_matches_cell(self):
        sniffer = self.make()
        ue = sniffer.discover(0x4601, 0.0, self.setup_body())
        cell_space = SRSRAN_PROFILE.ue_search_space()
        assert ue.search_space.coreset == cell_space.coreset
        assert ue.search_space.candidates_per_level == \
            cell_space.candidates_per_level


class TestFeedback:
    def test_publish_to_subscriber(self):
        service = FeedbackService(uplink_latency_s=0.01)
        inbox = []
        service.subscribe(0x4601, inbox.append)
        message = service.publish(1.0, 0x4601, throughput_bps=1e6,
                                  spare_capacity_bps=2e6, mcs_index=20,
                                  retransmission_ratio=0.05)
        assert len(inbox) == 1
        assert message.latency_s == pytest.approx(0.01)
        assert inbox[0].throughput_bps == 1e6
        assert service.messages_sent == 1

    def test_no_subscribers_no_message(self):
        service = FeedbackService()
        assert service.publish(0.0, 0x9999, 1.0, 1.0, 0, 0.0) is None
        assert service.messages_sent == 0

    def test_unsubscribe(self):
        service = FeedbackService()
        service.subscribe(1, lambda m: None)
        service.unsubscribe(1)
        assert service.subscribed_rntis == []

    def test_json_wire_format(self):
        import json
        service = FeedbackService()
        service.subscribe(1, lambda m: None)
        message = service.publish(0.0, 1, 1.0, 2.0, 3, 0.1)
        data = json.loads(message.to_json())
        assert data["rnti"] == 1
        assert data["mcs_index"] == 3

    def test_negative_latency_rejected(self):
        with pytest.raises(FeedbackError):
            FeedbackService(uplink_latency_s=-0.1)
