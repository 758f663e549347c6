"""Fast smoke tests over every experiment module.

The benchmarks run the figures at full scale; these runs are scaled to
fractions of a second so `pytest tests/` exercises every experiment
code path (series construction, summaries, table rendering) quickly.
"""

import pytest

from repro.experiments import (
    ext_congestion,
    ext_uplink,
    fig07_dci_miss,
    fig08_reg_error,
    fig09_throughput,
    fig10_active_time,
    fig11_ue_counts,
    fig12_processing,
    fig13_coverage,
    fig14_spare_capacity,
    fig15_mcs_retx,
    fig16_scenarios,
)
from repro.experiments.common import ExperimentError, run_session
from repro.gnb.cell_config import SRSRAN_PROFILE


class TestCommon:
    def test_run_session_labels(self):
        result = run_session(SRSRAN_PROFILE, n_ues=1, duration_s=0.2,
                             seed=1)
        assert result.label == "srsran/1ue"
        assert result.telemetry is result.scope.telemetry
        assert result.ue_truth_records(downlink=True) is not None

    def test_bad_duration(self):
        with pytest.raises(ExperimentError):
            run_session(SRSRAN_PROFILE, n_ues=1, duration_s=0.0)


class TestFig7:
    def test_smoke(self):
        row = fig07_dci_miss.measure_miss_rates(SRSRAN_PROFILE, 1, 0.5,
                                                seed=1)
        assert 0.0 <= row.dl_miss_rate <= 1.0
        result = fig07_dci_miss.to_result([row], [row])
        assert "srsran_dl_pct" in result.summary
        assert fig07_dci_miss.table([row], "t").render()


class TestFig8:
    def test_smoke(self):
        series = fig08_reg_error.measure_reg_errors(SRSRAN_PROFILE, 1,
                                                    0.5, seed=2)
        assert series.zero_fraction >= 0.9
        assert series.ccdf()
        result = fig08_reg_error.to_result([series], [series])
        assert result.summary["zero_fraction"] >= 0.9


class TestFig9:
    def test_smoke(self):
        mosolab = fig09_throughput.run_mosolab(duration_s=1.0)
        assert len(mosolab) == 4
        for series in mosolab:
            assert series.errors_kbps
            assert series.summary().median >= 0.0
        table = fig09_throughput.table(mosolab, "t")
        assert table.render()


class TestFig10And11:
    def test_smoke(self):
        series = fig10_active_time.run(duration_s=120.0, repetitions=1)
        assert len(series) == 6
        result = fig10_active_time.to_result(series)
        assert 0.7 <= result.summary["fraction_under_35s"] <= 1.0
        counts = fig11_ue_counts.run(duration_s=120.0)
        assert len(counts) == 4
        assert fig11_ue_counts.to_result(counts).summary["minute_p50"] > 0


class TestFig12:
    def test_smoke(self):
        row = fig12_processing.measure(
            fig12_processing.AMARISOFT_PROFILE, 2, n_slots=1)
        assert row.mean_us > 0
        result = fig12_processing.to_result([row])
        assert result.series

    def test_workload_validation(self):
        with pytest.raises(Exception):
            fig12_processing.build_workload(
                fig12_processing.AMARISOFT_PROFILE, 0)


class TestFig13:
    def test_smoke(self):
        cell = fig13_coverage.measure_position(
            fig13_coverage.FLOOR_POSITIONS[0], n_ues=4, duration_s=0.3)
        assert 0.0 <= cell.dl_miss_rate <= 1.0
        assert cell.sniffer_snr_db > 0  # near position


class TestFig14:
    def test_smoke(self):
        traces = fig14_spare_capacity.run(duration_s=1.5)
        assert len(traces) == 2
        result = fig14_spare_capacity.to_result(traces)
        assert "median_tracking_error_kbps" in result.summary
        assert fig14_spare_capacity.table(traces).render()


class TestFig15:
    def test_smoke(self):
        telemetry = fig15_mcs_retx.measure_channel("awgn", 2, 0.5,
                                                   seed=3)
        assert telemetry.est_mcs
        r2 = fig15_mcs_retx.fidelity_r2([telemetry, telemetry])
        assert len(r2) == 2


class TestFig16:
    def test_smoke(self):
        aggregation = fig16_scenarios.run_aggregation(duration_s=1.0)
        assert aggregation.spare and aggregation.competing
        assert fig16_scenarios.aggregation_table(aggregation).render()


class TestExtensions:
    def test_uplink_smoke(self):
        analysis = ext_uplink.run(n_ues=2, duration_s=1.5)
        result = ext_uplink.to_result(analysis)
        assert result.figure == "ext-uplink"
        assert ext_uplink.table(analysis).render()

    def test_congestion_smoke(self):
        ran_aware, baseline = ext_congestion.run(duration_s=1.5)
        assert ran_aware.times and baseline.times
        result = ext_congestion.to_result(ran_aware, baseline)
        assert result.summary["ran_aware_goodput_mbps"] > 0
