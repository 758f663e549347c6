"""Integration tests for the NRScope orchestrator."""

import numpy as np
import pytest

from repro import NRScope, Simulation, SRSRAN_PROFILE
from repro.analysis.matching import match_dcis
from repro.core.scope import ScopeError


def run_session(seconds=1.0, n_ues=2, snr_db=20.0, seed=5, **kwargs):
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=n_ues, seed=seed,
                           **{k: v for k, v in kwargs.items()
                              if k in ("fidelity", "channel", "traffic")})
    scope = NRScope.attach(sim, snr_db=snr_db,
                           **{k: v for k, v in kwargs.items()
                              if k in ("always_decode_setup",
                                       "idle_timeout_s")})
    sim.run(seconds=seconds)
    return sim, scope


class TestSynchronisation:
    def test_acquires_cell_then_tracks(self):
        sim, scope = run_session(seconds=0.5)
        assert scope.searcher.synchronized
        assert scope.counters.slots_observed == sim.slots_run
        assert scope.counters.slots_synchronized > 0
        assert len(scope.tracked_rntis) == 2

    def test_deaf_sniffer_never_syncs(self):
        sim, scope = run_session(seconds=0.2, snr_db=-10.0)
        assert not scope.searcher.synchronized
        assert len(scope.telemetry) == 0

    def test_invalid_fidelity(self):
        from repro.radio.medium import Link
        with pytest.raises(ScopeError):
            NRScope(Link(20.0), fidelity="psychic")


class TestTelemetryAccuracy:
    def test_near_zero_miss_rate_at_lab_snr(self):
        sim, scope = run_session(seconds=2.0)
        truth = [r for r in sim.gnb.log.downlink_records()
                 if r.search_space == "ue"]
        result = match_dcis(truth, scope.telemetry.records, downlink=True)
        assert result.miss_rate < 0.02
        assert result.phantom == []

    def test_miss_rate_increases_with_distance(self):
        _, near = run_session(seconds=1.0, snr_db=20.0, seed=9)
        _, far = run_session(seconds=1.0, snr_db=-1.0, seed=9)
        near_rate = near.counters.dcis_decoded
        far_rate = far.counters.dcis_decoded
        assert far_rate < near_rate

    def test_throughput_tracks_tcpdump(self):
        # TBS quantisation pads small transport blocks, so the TBS-based
        # estimate sits slightly above delivered bytes; the paper's
        # "majority of errors under 0.9%" is measured on larger buffered
        # transfers — here the bound is ~8% with millisecond-scale TBs.
        sim, scope = run_session(seconds=2.0, traffic="bulk")
        for rnti in scope.tracked_rntis:
            ue = sim.gnb.ue_by_rnti(rnti)
            est = scope.telemetry.bits_between(rnti, 0.0, 2.0)
            truth = ue.delivered_dl_bits
            assert est == pytest.approx(truth, rel=0.08)
            assert est >= truth * 0.98  # padding only ever adds bits

    def test_retransmission_ratio_close_to_gnb(self):
        sim, scope = run_session(seconds=2.0, channel="urban", seed=21)
        truth = sim.gnb.log.downlink_records()
        gt_ratio = sum(r.is_retransmission for r in truth) / len(truth)
        est_ratio = scope.telemetry.retransmission_ratio()
        assert est_ratio == pytest.approx(gt_ratio, abs=0.05)


class TestRachBehaviour:
    def test_missed_rach_loses_ue_forever(self):
        # At very poor SNR, some MSG 4s are missed; those RNTIs produce
        # no telemetry at all.
        sim, scope = run_session(seconds=1.0, n_ues=8, snr_db=-2.5,
                                 seed=13)
        missed = scope.rach.missed_rach_rntis if scope.rach else set()
        for rnti in missed:
            assert scope.telemetry.for_rnti(rnti) == []
        assert scope.counters.msg4_total == 8

    def test_setup_cached_after_first_ue(self):
        sim, scope = run_session(seconds=0.5, n_ues=4)
        assert scope.rach.setup_pdsch_decodes == 1

    def test_ablation_always_decode_setup(self):
        sim, scope = run_session(seconds=0.5, n_ues=4,
                                 always_decode_setup=True)
        assert scope.rach.setup_pdsch_decodes == \
            scope.counters.msg4_seen


class TestIdlePruning:
    def test_idle_rnti_aged_out(self):
        sim, scope = run_session(seconds=0.3, idle_timeout_s=0.5)
        rnti = scope.tracked_rntis[0]
        ue = sim.gnb.ue_by_rnti(rnti)
        sim.gnb.remove_ue(ue.ue_id, time_s=sim.now_s)
        sim.run(seconds=1.0)
        assert rnti not in scope.tracked_rntis


class TestCaptureImpairments:
    def test_equalizer_rescues_impaired_capture(self):
        """With oscillator drift on the capture path, decoding only
        works because the DMRS equaliser runs — and it recovers
        essentially everything."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=81,
                               fidelity="iq")
        scope = NRScope.attach(sim, snr_db=15.0,
                               capture_impairments=True)
        sim.run(seconds=0.15)
        truth = [r for r in sim.gnb.log.downlink_records()
                 if r.search_space == "ue"]
        result = match_dcis(truth, scope.telemetry.records,
                            downlink=True)
        assert truth, "need traffic to measure"
        assert result.miss_rate < 0.1
        assert result.phantom == []

    def test_drift_without_equalizer_breaks_decoding(self):
        """The same impairments with equalisation disabled lose the
        DCIs once the phase sits off QPSK's decision regions — the
        control experiment for the test above.  The phase is pinned
        (rather than letting the random walk wander) to keep the test
        deterministic."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=81,
                               fidelity="iq")
        scope = NRScope.attach(sim, snr_db=15.0,
                               capture_impairments=True)
        sim.run(seconds=0.02)  # sync first
        assert scope._grid_decoder is not None
        scope._grid_decoder.equalize = False
        scope._capture_phase = 2.0  # far outside the QPSK region
        sim.run(seconds=0.2)
        truth = [r for r in sim.gnb.log.downlink_records()
                 if r.search_space == "ue" and r.time_s > 0.05]
        late = [r for r in scope.telemetry.records
                if r.downlink and r.time_s > 0.05]
        assert truth
        assert len(late) < len(truth) * 0.5


class TestControlSlab:
    @staticmethod
    def iq_session(poison, impairments):
        """A short iq session; with ``poison``, every captured RE past
        the control region is NaN before the decoder sees it."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=4, seed=5,
                               fidelity="iq")
        scope = NRScope.attach(sim, snr_db=10.0,
                               capture_impairments=impairments)
        capture = scope._capture
        poisoned = []

        def capture_control_region(output):
            grid = capture(output)
            if poison:
                grid.data[:, grid.n_ctrl:] = np.nan
                poisoned.append(grid.n_ctrl)
            return grid

        scope._capture = capture_control_region
        sim.run(seconds=0.2)
        scope.close()
        return scope, poisoned

    @pytest.mark.parametrize("impairments", [False, True])
    def test_decode_reads_only_the_control_region(self, impairments):
        """The capture's noise covers symbols [0, n_ctrl) only, which is
        exact only while nothing reads past them: the decoder must
        decode the same DCIs, with the same attempts, from a capture
        whose other symbols are NaN."""
        clean, _ = self.iq_session(False, impairments)
        dirty, poisoned = self.iq_session(True, impairments)
        assert poisoned and set(poisoned) == {2}
        assert clean.counters.dcis_decoded > 20
        assert dirty.telemetry.records == clean.telemetry.records
        assert dirty._grid_decoder.attempts == \
            clean._grid_decoder.attempts
        assert dirty.counters == clean.counters


class TestIqParity:
    def test_iq_and_message_modes_agree_at_high_snr(self):
        sim_m, scope_m = run_session(seconds=0.25, snr_db=25.0,
                                     fidelity="message", seed=17)
        sim_i, scope_i = run_session(seconds=0.25, snr_db=25.0,
                                     fidelity="iq", seed=17)
        truth_m = [r for r in sim_m.gnb.log.downlink_records()
                   if r.search_space == "ue"]
        truth_i = [r for r in sim_i.gnb.log.downlink_records()
                   if r.search_space == "ue"]
        # The same seed drives the same schedule on both sides.
        assert len(truth_m) == len(truth_i)
        rate_m = match_dcis(truth_m, scope_m.telemetry.records).miss_rate
        rate_i = match_dcis(truth_i, scope_i.telemetry.records).miss_rate
        assert rate_m < 0.05
        assert rate_i < 0.05
