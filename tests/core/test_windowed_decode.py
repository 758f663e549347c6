"""The windowed iq DCI decode commits exactly what a per-slot decode does.

The slot runtime prepares each downlink slot in its own submit, decodes
a window of prepared slots in one polar traversal spread over the slots
that follow, and commits one finished slot per submit.  Windows end at
a TDD uplink slot, at ``WINDOW_SLOTS`` (FDD), at every flush (prune
barrier, checkpoint) and at run end.  None of that may show in the
output: the reference here is the same session with one-slot windows
(``WINDOW_SLOTS = 1``), which decodes and commits each slot in its own
submit.
"""

import pickle

import pytest

from repro import NRScope, Simulation
from repro.core import runtime as runtime_module
from repro.gnb.cell_config import SRSRAN_PROFILE, TMOBILE_N25_PROFILE
from repro.obs import ObsContext


def window_sizes(runtime):
    """The size of every window ``runtime`` closes from now on."""
    sizes = []
    close = runtime._close_window

    def logged():
        if runtime._window_seqs:
            sizes.append(len(runtime._window_seqs))
        close()

    runtime._close_window = logged
    return sizes


class ListReporter:
    """Every obs event, in emission order."""

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(dict(event))

    def close(self):
        return None


def build(profile, per_slot, monkeypatch, seed=42, n_ues=4,
          prune_every=None, idle_timeout_s=10.0):
    """A cell, an iq scope with an event log, and its window sizes."""
    sim = Simulation.build(profile, n_ues=n_ues, seed=seed,
                           fidelity="iq")
    reporter = ListReporter()
    with monkeypatch.context() as patch:
        if per_slot:
            patch.setattr(runtime_module, "WINDOW_SLOTS", 1)
        scope = NRScope.attach(
            sim, snr_db=18.0, idle_timeout_s=idle_timeout_s,
            obs=ObsContext.create([reporter], run_id="w"))
    if prune_every is not None:
        scope._prune_interval_slots = prune_every
    return sim, scope, reporter, window_sizes(scope._runtime)


def without_durations(events):
    return [{k: v for k, v in event.items() if k != "duration_us"}
            for event in events]


def outcome(scope):
    """Everything the session committed, as comparable values: the
    telemetry, the counters, the tracked set, the UCI reports and the
    spare-capacity split of every TTI and every RNTI the session saw."""
    spare = scope.spare
    return ([record.to_json() for record in scope.telemetry.records],
            scope.counters, scope._grid_decoder.attempts,
            scope.tracked_rntis, scope.uci.observations,
            spare.tti_table().tolist(),
            {rnti: spare.shares(rnti).tolist()
             for rnti in scope.telemetry.rntis()})


def run_pair(profile, slots, monkeypatch, **kwargs):
    """The same session with windows and with one-slot windows."""
    sessions = []
    for per_slot in (False, True):
        sim, scope, reporter, sizes = build(profile, per_slot,
                                            monkeypatch, **kwargs)
        sim.run_slots(slots)
        scope.close()
        sessions.append((scope, reporter, sizes))
    return sessions


class TestWindowedMatchesPerSlot:
    @pytest.mark.parametrize("profile,slots", [
        (SRSRAN_PROFILE, 243), (TMOBILE_N25_PROFILE, 181)],
        ids=["srsran-tdd", "tmobile-n25-fdd"])
    def test_identical_output_and_obs_stream(self, profile, slots,
                                             monkeypatch):
        """TDD windows end at the uplink slots, FDD windows at the cap;
        the run ends mid-window."""
        (windowed, w_obs, w_sizes), (per_slot, p_obs, p_sizes) = \
            run_pair(profile, slots, monkeypatch)
        assert set(p_sizes) == {1}
        if profile.is_tdd:
            assert max(w_sizes) > 1
        else:
            assert max(w_sizes) == runtime_module.WINDOW_SLOTS
        assert windowed.counters.dcis_decoded > 0
        assert outcome(windowed) == outcome(per_slot)
        assert without_durations(w_obs.events) == \
            without_durations(p_obs.events)

    def test_prune_barrier_cuts_windows(self, monkeypatch):
        """A prune flushes mid-window; the idle UEs it drops depend on
        every earlier slot's activity having committed."""
        (windowed, w_obs, w_sizes), (per_slot, p_obs, _) = run_pair(
            SRSRAN_PROFILE, 400, monkeypatch, prune_every=23,
            idle_timeout_s=0.015)
        assert 1 in w_sizes and max(w_sizes) > 1
        assert len(windowed.tracked_rntis) < windowed.counters.msg4_seen
        assert outcome(windowed) == outcome(per_slot)
        assert without_durations(w_obs.events) == \
            without_durations(p_obs.events)

    def test_commit_lags_by_at_most_two_periods(self, monkeypatch):
        """A windowed slot commits within about two TDD periods of its
        capture, and no submit finishes more than one decoded slot."""
        sim, scope, _, _ = build(SRSRAN_PROFILE, False, monkeypatch)
        runtime = scope._runtime
        worst_lag = 0
        for _ in range(200):
            before = runtime.stats().stage("dci").calls
            sim.step()
            assert runtime.stats().stage("dci").calls - before <= 1
            worst_lag = max(worst_lag, len(runtime._pending))
        scope.close()
        assert 0 < worst_lag <= 2 * 10 + 1

    @pytest.mark.parametrize("cut", [94, 98], ids=["mid-window",
                                                    "uplink-slot"])
    def test_checkpoint_and_restore_mid_window(self, cut, monkeypatch):
        """A checkpoint flushes the open window; the resumed session
        ends where an uninterrupted per-slot one does."""
        total = 260
        sim, scope, _, _ = build(SRSRAN_PROFILE, False, monkeypatch)
        sim.run_slots(cut)
        blob = pickle.dumps({"sim": sim.checkpoint_state(),
                             "scope": scope.checkpoint_state()})
        state = pickle.loads(blob)
        resumed_sim = Simulation.from_state(state["sim"])
        resumed = NRScope.attach(resumed_sim, snr_db=18.0)
        resumed.restore_state(state["scope"])
        resumed_sim.run_slots(total - cut)
        resumed.close()

        ref_sim, reference, _, _ = build(SRSRAN_PROFILE, True,
                                         monkeypatch)
        ref_sim.run_slots(total)
        reference.close()
        assert outcome(resumed) == outcome(reference)
