"""Tests for the session report generator."""

import pytest

from repro import NRScope, Simulation, SRSRAN_PROFILE
from repro.analysis.summary import SummaryError, build_session_report


@pytest.fixture(scope="module")
def session():
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=3, seed=83)
    scope = NRScope.attach(sim, snr_db=20.0)
    sim.run(seconds=1.0)
    return sim, scope


class TestBuild:
    def test_cell_aggregates(self, session):
        sim, scope = session
        report = build_session_report(scope, 1.0)
        assert report.cell.duration_s == 1.0
        assert report.cell.slots_observed == 2000
        assert report.cell.ues_discovered == 3
        assert report.cell.dcis_decoded == \
            scope.counters.dcis_decoded
        assert 0.0 < report.cell.mean_prb_utilisation <= 1.0

    def test_per_ue_rows(self, session):
        sim, scope = session
        report = build_session_report(scope, 1.0)
        assert len(report.ues) == 3
        # Sorted by DL rate, highest first.
        rates = [u.dl_mbps for u in report.ues]
        assert rates == sorted(rates, reverse=True)
        for ue in report.ues:
            assert ue.dl_mbps > 0
            assert 0 <= ue.retx_ratio <= 1
            assert ue.n_dcis > 0
            assert 0 <= ue.active_time_s <= 1.0

    def test_aggregate_consistent_with_rows(self, session):
        sim, scope = session
        report = build_session_report(scope, 1.0)
        # UL DCIs belong to the same RNTIs, so cell aggregate (DL) must
        # equal the sum of the per-UE DL rates.
        assert report.cell.aggregate_dl_mbps == pytest.approx(
            sum(u.dl_mbps for u in report.ues), rel=1e-9)

    def test_render_contains_everything(self, session):
        sim, scope = session
        text = build_session_report(scope, 1.0).render()
        assert "Telemetry session" in text
        assert "Per-UE telemetry" in text
        for rnti in scope.telemetry.rntis():
            assert f"0x{rnti:04x}" in text

    def test_render_includes_runtime_stages(self, session):
        sim, scope = session
        report = build_session_report(scope, 1.0)
        assert report.runtime is not None
        assert report.runtime.slots_submitted == 2000
        text = report.render()
        assert "Runtime stages - 2000/2000 slots" in text
        for stage in ("sync", "dci", "sinks"):
            assert stage in text

    def test_render_without_runtime(self, session):
        sim, scope = session
        report = build_session_report(scope, 1.0)
        bare = type(report)(cell=report.cell, ues=report.ues)
        assert "Runtime stages" not in bare.render()

    def test_bad_duration(self, session):
        _, scope = session
        with pytest.raises(SummaryError):
            build_session_report(scope, 0.0)

    def test_empty_session(self):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=1)
        scope = NRScope.attach(sim, snr_db=20.0)
        sim.run(seconds=0.05)
        report = build_session_report(scope, 0.05)
        assert report.ues == []
        assert report.cell.aggregate_dl_mbps == 0.0
        assert report.render()


class TestKeepUp:
    def test_sniffer_seconds_per_air_second_on_an_iq_run(self):
        """The keep-up number is the scope's stage time (the DCI stage
        amortized) over the air time of every submitted slot; the gNB's
        own time is not in it."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=7,
                               fidelity="iq")
        scope = NRScope.attach(sim, snr_db=15.0)
        sim.run(seconds=0.05)
        stats = scope.runtime_stats
        slot_s = SRSRAN_PROFILE.slot_duration_s
        busy_s = sum(stage.total_s for stage in stats.stages)
        keep_up = stats.busy_per_air_s(slot_s)
        assert stats.slots_submitted == 100
        assert keep_up == pytest.approx(busy_s / (100 * slot_s))
        assert keep_up > 0
        text = build_session_report(scope, 0.05).render()
        assert f"100/100 slots, {keep_up:.2f} s per air s, " \
            f"{stats.budget_overruns} over budget of " \
            f"{stats.stage('dci').calls} decode slots" in text
        assert "an equal share of its window's shared work" in text
