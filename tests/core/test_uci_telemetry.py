"""Tests for UCI sniffing (paper section 7 future work) and OLLA."""

import pytest

from repro import NRScope, Simulation, SRSRAN_PROFILE
from repro.core.decode_model import uci_bler, uci_decode_succeeds
from repro.core.uci_telemetry import UciObservation, UciTelemetry
from repro.gnb.gnb import GNodeB
from repro.radio.medium import lab_medium


class TestUciTelemetryStore:
    def obs(self, rnti=0x4601, slot=8, cqi=10, sr=False, acks=()):
        return UciObservation(slot_index=slot, time_s=slot * 5e-4,
                              rnti=rnti, cqi=cqi,
                              scheduling_request=sr, harq_ack=acks)

    def test_series_and_latest(self):
        store = UciTelemetry()
        store.add(self.obs(slot=8, cqi=10))
        store.add(self.obs(slot=16, cqi=12))
        assert store.latest_cqi(0x4601) == 12
        assert [c for _, c in store.cqi_series(0x4601)] == [10, 12]
        assert store.rntis() == [0x4601]

    def test_sr_count(self):
        store = UciTelemetry()
        store.add(self.obs(sr=True))
        store.add(self.obs(slot=16, sr=False))
        store.add(self.obs(slot=24, sr=True))
        assert store.scheduling_request_count(0x4601) == 2

    def test_nack_ratio(self):
        store = UciTelemetry()
        store.add(self.obs(acks=(1, 0)))
        store.add(self.obs(slot=16, acks=(1,)))
        assert store.nack_ratio(0x4601) == pytest.approx(1 / 3)
        assert store.nack_ratio(0x9999) == 0.0

    def test_forget(self):
        store = UciTelemetry()
        store.add(self.obs())
        store.forget(0x4601)
        assert store.for_rnti(0x4601) == []


class TestUciBlerModel:
    def test_waterfall(self):
        assert uci_bler(-10.0) > 0.9
        assert uci_bler(5.0) < 0.01

    def test_monotone(self):
        values = [uci_bler(s) for s in range(-10, 8)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9

    def test_draws(self, rng):
        fails = sum(not uci_decode_succeeds(-3.0, rng)
                    for _ in range(3000))
        assert fails / 3000 == pytest.approx(uci_bler(-3.0), abs=0.04)


class TestUciEndToEnd:
    def run_session(self, seconds=1.5, snr_db=20.0):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=51,
                               channel="pedestrian")
        scope = NRScope.attach(sim, snr_db=snr_db)
        sim.run(seconds=seconds)
        return sim, scope

    def test_uci_reports_decoded(self):
        sim, scope = self.run_session()
        assert len(scope.uci) > 0
        for rnti in scope.tracked_rntis:
            series = scope.uci.cqi_series(rnti)
            assert series, f"no CQI reports for 0x{rnti:04x}"
            for _, cqi in series:
                assert 0 <= cqi <= 15

    def test_sniffed_cqi_matches_gnb_knowledge(self):
        """The CQIs NR-Scope hears are the same ones steering the
        scheduler, so the sniffed series must correlate with the MCS
        choices in the DCI stream."""
        sim, scope = self.run_session(seconds=2.0)
        for rnti in scope.tracked_rntis:
            cqis = [c for _, c in scope.uci.cqi_series(rnti)]
            mcss = scope.telemetry.mcs_distribution(rnti)
            if not cqis or not mcss:
                continue
            # Both track the same channel: means must roughly co-vary
            # (healthy channel: CQI ~13-15 implies mid/high MCS).
            assert (sum(cqis) / len(cqis) > 9) == \
                (sum(mcss) / len(mcss) > 8)

    def test_weak_uplink_misses_reports(self):
        _, strong = self.run_session(snr_db=20.0)
        _, weak = self.run_session(snr_db=2.0)
        # 2 dB downlink minus the 6 dB uplink offset = -4 dB PUCCH:
        # many reports lost.
        assert len(weak.uci) < len(strong.uci)

    def test_sr_seen_for_backlogged_uplink(self):
        sim, scope = self.run_session(seconds=2.0)
        total_srs = sum(scope.uci.scheduling_request_count(r)
                        for r in scope.uci.rntis())
        assert total_srs > 0


class TestOlla:
    def run_gnb(self, olla, seconds=2.0, seed=53):
        sim = Simulation(SRSRAN_PROFILE,
                         gnb=GNodeB(SRSRAN_PROFILE, seed=seed,
                                    olla_target_bler=olla),
                         medium=lab_medium(), seed=seed)
        for i in range(4):
            ue = sim.make_ue(i, traffic="bulk", channel="vehicle",
                             mean_snr_db=15.0)
            sim.gnb.add_ue(ue)
        sim.run(seconds=seconds)
        records = [r for r in sim.gnb.log.downlink_records()
                   if r.search_space == "ue"]
        retx = sum(r.is_retransmission for r in records) / len(records)
        return retx

    def test_olla_reduces_retransmissions(self):
        # Fast fading + stale CQI reports keep the raw error rate well
        # above the 10% target; OLLA pulls it down as the per-UE offsets
        # converge (a few dB over a couple of seconds).
        without = self.run_gnb(olla=None, seconds=3.0)
        with_olla = self.run_gnb(olla=0.1, seconds=3.0)
        assert with_olla < without * 0.9