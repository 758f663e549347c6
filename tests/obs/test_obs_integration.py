"""End-to-end contracts of the observability bus on real sessions.

The acceptance criteria of the bus, as tests:

* a disabled-bus session produces a byte-identical TelemetryLog to an
  enabled one (observation does not perturb the measurement);
* the stream reconstructs ScopeCounters / RuntimeStats totals, and
  ``obs topn`` reproduces the session's miss numbers exactly.
"""

import pytest

from repro import NRScope, Simulation, SRSRAN_PROFILE
from repro.obs import OBS_NOOP, ObsContext, RingReporter
from repro.obs.topn import cluster_failures


def run_session(seconds=0.5, n_ues=2, snr_db=20.0, seed=5,
                obs=None, **scope_kwargs):
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=n_ues, seed=seed)
    scope = NRScope.attach(sim, snr_db=snr_db, obs=obs, **scope_kwargs)
    sim.run(seconds=seconds)
    scope.close()
    return sim, scope


class TestNonPerturbation:
    def test_disabled_session_defaults_to_the_singleton(self):
        _, scope = run_session(seconds=0.2)
        assert scope._obs is OBS_NOOP

    def test_enabled_bus_leaves_telemetry_byte_identical(self):
        _, plain = run_session(seconds=0.5)
        ring = RingReporter()
        _, observed = run_session(
            seconds=0.5, obs=ObsContext.create([ring], run_id="t"))
        assert len(ring.events) > 0
        plain_lines = [r.to_json() for r in plain.telemetry.records]
        observed_lines = [r.to_json()
                          for r in observed.telemetry.records]
        assert plain_lines == observed_lines
        assert plain.counters == observed.counters


class TestStreamReconstructsCounters:
    @pytest.fixture(scope="class")
    def session(self):
        ring = RingReporter()
        _, scope = run_session(
            seconds=1.0, snr_db=6.0,
            obs=ObsContext.create([ring], run_id="t"))
        return scope, ring.events

    def test_session_saw_failures(self, session):
        scope, _ = session
        assert scope._record_decoder.misses > 0

    def test_miss_events_match_decoder_misses(self, session):
        scope, events = session
        misses = [e for e in events if e["name"] == "dci.miss"]
        assert len(misses) == scope._record_decoder.misses
        for event in misses:
            assert event["reason"] == "bler"
            assert event["cell"] == "srsran"

    def test_decoded_counter_matches_scope_counters(self, session):
        scope, events = session
        decoded = sum(e["value"] for e in events
                      if e["name"] == "dci.decoded")
        assert decoded == scope.counters.dcis_decoded

    def test_msg4_events_match_counters(self, session):
        scope, events = session
        missed = [e for e in events if e["name"] == "msg4.miss"]
        tracked = [e for e in events if e["name"] == "msg4.tracked"]
        assert len(missed) == scope.counters.msg4_missed
        assert len(tracked) == scope.counters.msg4_seen

    def test_stage_spans_match_runtime_stats(self, session):
        scope, events = session
        stats = scope.runtime_stats
        by_stage = {}
        for event in events:
            if event["name"] == "stage.span":
                by_stage[event["stage"]] = \
                    by_stage.get(event["stage"], 0) + 1
        for stage in stats.stages:
            assert by_stage.get(stage.name, 0) == stage.calls

    def test_session_bracketing_events(self, session):
        _, events = session
        assert events[0]["name"] == "session.start"
        assert events[-1]["name"] == "session.end"
        assert events[0]["fidelity"] == "message"

    def test_topn_reproduces_session_totals(self, session):
        scope, events = session
        report = cluster_failures(events, top_n=100)
        assert report.by_name.get("dci.miss", 0) \
            == scope._record_decoder.misses
        assert report.by_name.get("msg4.miss", 0) \
            == scope.counters.msg4_missed
        assert sum(c.count for c in report.clusters) \
            == report.failures_total
