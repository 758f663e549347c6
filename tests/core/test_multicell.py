"""Tests for the multi-cell fusion library (paper section 7)."""

import pytest

from repro import NRScope, Simulation
from repro.core.multicell import (
    FusedStream,
    MultiCellController,
    correlate_streams,
    detect_handovers,
)
from repro.gnb.cell_config import AMARISOFT_PROFILE, SRSRAN_PROFILE, \
    TMOBILE_N25_PROFILE


def build_controller(profiles=(SRSRAN_PROFILE, AMARISOFT_PROFILE),
                     seed=61):
    controller = MultiCellController()
    for index, profile in enumerate(profiles):
        sim = Simulation.build(profile, n_ues=0, seed=seed + index)
        scope = NRScope.attach(sim, snr_db=20.0)
        controller.add_cell(profile.name, sim, scope)
    return controller


class TestController:
    def test_cells_registered(self):
        controller = build_controller()
        assert controller.cells == ["amarisoft", "srsran"]
        with pytest.raises(Exception):
            controller.stream("nonexistent")

    def test_duplicate_cell_rejected(self):
        controller = build_controller()
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=99)
        scope = NRScope.attach(sim, snr_db=20.0)
        with pytest.raises(Exception):
            controller.add_cell("srsran", sim, scope)

    def test_lockstep_time(self):
        controller = build_controller()
        controller.run(seconds=0.5)
        for name in controller.cells:
            assert controller.stream(name).sim.now_s == \
                pytest.approx(0.5, abs=1e-3)

    def test_mixed_numerology_lockstep(self):
        # 30 kHz (0.5 ms TTI) next to 15 kHz (1 ms TTI).
        controller = build_controller(
            profiles=(SRSRAN_PROFILE, TMOBILE_N25_PROFILE))
        controller.run(seconds=0.25)
        srsran = controller.stream("srsran").sim
        tmobile = controller.stream("tmobile-n25").sim
        assert srsran.slots_run == 2 * tmobile.slots_run

    def test_attach_device_connects(self):
        controller = build_controller()
        controller.attach_device("srsran")
        controller.run(seconds=0.3)
        scope = controller.stream("srsran").scope
        assert len(scope.tracked_rntis) == 1

    def test_add_cell_auto_attaches_scope(self):
        controller = MultiCellController()
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=61)
        controller.add_cell("srsran", sim, snr_db=20.0)
        controller.attach_device("srsran")
        controller.run(seconds=0.3)
        scope = controller.stream("srsran").scope
        assert scope.runtime_stats.slots_completed > 0
        assert len(scope.tracked_rntis) == 1

    def test_runtime_stats_aggregates_across_cells(self):
        controller = MultiCellController()
        for index, profile in enumerate((SRSRAN_PROFILE,
                                         AMARISOFT_PROFILE)):
            sim = Simulation.build(profile, n_ues=1, seed=61 + index)
            controller.add_cell(profile.name, sim, snr_db=20.0)
        controller.run(seconds=0.3)
        stats = controller.runtime_stats()
        assert sorted(stats) == ["amarisoft", "srsran"]
        # Each cell's snapshot is an independent runtime's: per-cell
        # slot counts match that cell's own simulation clock, and the
        # fleet total is their sum.
        total = 0
        for name, cell_stats in stats.items():
            sim = controller.stream(name).sim
            assert cell_stats.slots_submitted == sim.slots_run
            assert cell_stats.slots_completed == \
                cell_stats.slots_submitted
            stage_names = [s.name for s in cell_stats.stages]
            assert "dci" in stage_names and "sinks" in stage_names
            total += cell_stats.slots_completed
        assert total == sum(controller.stream(n).sim.slots_run
                            for n in controller.cells)

    def test_shared_obs_bus_labels_cells(self):
        from repro.obs import ObsContext, RingReporter, validate_events

        ring = RingReporter()
        obs = ObsContext.create([ring], run_id="fleet")
        controller = MultiCellController(obs=obs)
        for index, profile in enumerate((SRSRAN_PROFILE,
                                         AMARISOFT_PROFILE)):
            sim = Simulation.build(profile, n_ues=1, seed=61 + index)
            controller.add_cell(profile.name, sim, snr_db=20.0)
        controller.run(seconds=0.2)
        for name in controller.cells:
            controller.stream(name).scope.close()
        # One globally sequenced stream, each event labelled with the
        # cell that produced it.
        assert validate_events(ring.events) == []
        cells_seen = {e.get("cell") for e in ring.events}
        assert cells_seen == {"amarisoft", "srsran"}
        starts = [e for e in ring.events
                  if e["name"] == "session.start"]
        assert len(starts) == 2


class TestHandover:
    def test_handover_detected(self):
        controller = build_controller()
        device = controller.attach_device("srsran", traffic="bulk")
        controller.run(seconds=1.0)
        controller.handover(device, "srsran", "amarisoft",
                            traffic="bulk")
        controller.run(seconds=1.0)

        streams = [controller.stream(n) for n in controller.cells]
        events = detect_handovers(streams, max_gap_s=0.5)
        assert len(events) == 1
        event = events[0]
        assert event.from_cell == "srsran"
        assert event.to_cell == "amarisoft"
        assert 0.0 <= event.gap_s <= 0.5
        assert event.left_at_s == pytest.approx(1.0, abs=0.2)

    def test_no_handover_without_movement(self):
        controller = build_controller()
        controller.attach_device("srsran", traffic="bulk")
        controller.attach_device("amarisoft", traffic="bulk")
        controller.run(seconds=1.0)
        streams = [controller.stream(n) for n in controller.cells]
        # Both devices stay active to the end: no departures.
        assert detect_handovers(streams) == []

    def test_gap_window_respected(self):
        controller = build_controller()
        device = controller.attach_device("srsran", traffic="bulk")
        controller.run(seconds=0.8)
        # Leave, wait far longer than the window, then join the other.
        controller.stream("srsran").sim.gnb.remove_ue(device)
        controller.run(seconds=1.5)
        controller.attach_device("amarisoft", traffic="bulk")
        controller.run(seconds=0.6)
        streams = [controller.stream(n) for n in controller.cells]
        assert detect_handovers(streams, max_gap_s=0.5) == []


class TestCarrierAggregationFusion:
    def test_correlation_pairs_ca_legs(self):
        controller = build_controller()
        # One carrier-aggregated device whose legs share a traffic
        # pattern, plus an unrelated bursty UE on each cell.
        legs = controller.attach_ca_device(["srsran", "amarisoft"],
                                           traffic="onoff", rate_bps=6e6)
        controller.attach_device("srsran", traffic="onoff",
                                 rate_bps=6e6)
        controller.attach_device("amarisoft", traffic="onoff",
                                 rate_bps=6e6)
        controller.run(seconds=3.0)

        a = controller.stream("srsran")
        b = controller.stream("amarisoft")
        pairs = correlate_streams(a, b, bin_s=0.1)
        assert pairs, "no correlation candidates found"
        for _, _, corr in pairs:
            assert -1.0001 <= corr <= 1.0001
        # The CA device's legs are the best-correlated pair.
        rnti_a = a.sim.gnb.ues[legs["srsran"]].rnti
        rnti_b = b.sim.gnb.ues[legs["amarisoft"]].rnti
        best_a, best_b, best_corr = pairs[0]
        assert (best_a, best_b) == (rnti_a, rnti_b)
        assert best_corr > 0.6

    def test_ca_needs_two_cells(self):
        controller = build_controller()
        with pytest.raises(Exception):
            controller.attach_ca_device(["srsran"])

    def test_fused_stream_sums_legs(self):
        controller = build_controller()
        controller.attach_device("srsran", traffic="bulk", rate_bps=3e6)
        controller.attach_device("amarisoft", traffic="bulk",
                                 rate_bps=3e6)
        controller.run(seconds=1.5)
        a = controller.stream("srsran")
        b = controller.stream("amarisoft")
        fused = FusedStream(device="phone-1")
        fused.add_leg(a, a.scope.tracked_rntis[0])
        fused.add_leg(b, b.scope.tracked_rntis[0])

        total = fused.total_bits()
        leg_a = a.scope.telemetry.bits_between(
            a.scope.tracked_rntis[0], 0.0, a.sim.now_s)
        leg_b = b.scope.telemetry.bits_between(
            b.scope.tracked_rntis[0], 0.0, b.sim.now_s)
        assert total == leg_a + leg_b
        series = fused.throughput_series(window_s=0.5)
        assert series
        # The fused rate roughly doubles one leg's.
        peak = max(rate for _, rate in series)
        assert peak > 4e6

    def test_empty_fused_stream_rejected(self):
        with pytest.raises(Exception):
            FusedStream(device="x").throughput_series(0.5)