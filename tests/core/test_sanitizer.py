"""nrsan tests: the runtime half of the stage-purity contract.

nrsan audits RNG draws inside the parallel stage.  Tracked state needs
no runtime guard: the stage reads a read-only snapshot of frozen search
spaces, so the static R006 fixture's violation (a tracked-UE write in
the parallel stage) fails by construction and surfaces as a
``SlotRuntimeError`` at commit.
"""

import dataclasses
import operator

import numpy as np
import pytest

from repro import NRScope, Simulation, SRSRAN_PROFILE
from repro.core.rach_sniffer import RachSniffer
from repro.core.runtime import (
    SlotContext,
    SlotRuntime,
    SlotRuntimeError,
    Stage,
)
from repro.core.sanitizer import (
    AuditedGenerator,
    Sanitizer,
    SanitizerViolation,
    parallel_stage,
)
from repro.phy.coreset import SearchSpace
from repro.rrc.messages import RrcSetup


def make_sniffer(*rntis):
    sniffer = RachSniffer(bwp_n_prb=52)
    for rnti in rntis:
        sniffer.discover(rnti, 0.0, RrcSetup(tc_rnti=rnti))
    return sniffer


class TestActivation:
    def test_disabled_hooks_are_passthrough(self):
        san = Sanitizer(enabled=False)
        rng = np.random.default_rng(0)
        assert san.audit_rng(rng) is rng

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("NRSAN", raising=False)
        assert not Sanitizer.from_env().enabled
        for value in ("1", "on", "yes", "true"):
            monkeypatch.setenv("NRSAN", value)
            assert Sanitizer.from_env().enabled
        for value in ("0", "off", "false", ""):
            monkeypatch.setenv("NRSAN", value)
            assert not Sanitizer.from_env().enabled

    def test_parallel_stage_marker_returns_function(self):
        def fn(ctx):
            return ctx

        marked = parallel_stage(fn)
        assert marked is fn
        assert marked.__nr_parallel_stage__


class TestTrackedGuard:
    """Tracked state is guarded by structure, not by a proxy: the
    parallel stage reads a read-only snapshot of frozen search spaces,
    so writes fail with or without nrsan."""

    def test_snapshot_is_frozen_everywhere(self):
        sniffer = make_sniffer(1)
        snapshot = sniffer.space_snapshot()
        for op in (lambda: snapshot.pop(1),
                   lambda: snapshot.popitem(),
                   lambda: snapshot.clear(),
                   lambda: snapshot.update({2: None}),
                   lambda: snapshot.setdefault(3, None)):
            with pytest.raises(AttributeError):
                op()
        for op in (lambda: operator.setitem(snapshot, 4, None),
                   lambda: operator.delitem(snapshot, 1)):
            with pytest.raises(TypeError):
                op()
        assert sorted(sniffer.tracked) == [1]

    def test_reads_pass_through(self):
        sniffer = make_sniffer(7)
        snapshot = sniffer.space_snapshot()
        assert 7 in snapshot
        assert snapshot[7] is sniffer.tracked[7].search_space
        assert sorted(snapshot) == [7]

    def test_ue_mutation_legal_outside_stage(self):
        """Backbone stages mutate UEs through the live table; the
        snapshot is a copy, so those changes never show in it."""
        sniffer = make_sniffer(1)
        snapshot = sniffer.space_snapshot()
        sniffer.tracked[1].touch(1.5)
        assert sniffer.tracked[1].last_seen_s == 1.5
        sniffer.discover(2, 1.5, None)
        sniffer.release(1)
        assert sorted(snapshot) == [1]

    def test_new_snapshot_follows_table_changes(self):
        sniffer = make_sniffer(1)
        assert sorted(sniffer.space_snapshot()) == [1]
        sniffer.discover(2, 5.0, None)
        assert sorted(sniffer.space_snapshot()) == [1, 2]
        sniffer.release(2)
        assert sorted(sniffer.space_snapshot()) == [1]
        assert sniffer.prune_idle(now_s=10.0, idle_timeout_s=1.0) == [1]
        assert dict(sniffer.space_snapshot()) == {}

    def test_ue_mutation_trips_inside_stage(self):
        """Snapshot values are frozen spaces, not TrackedUe objects:
        there is no mutator to call and attribute stores raise."""
        space = make_sniffer(1).space_snapshot()[1]
        assert isinstance(space, SearchSpace)
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.is_common = True
        assert not hasattr(space, "touch")


class TestRngAudit:
    def test_stream_is_bit_identical(self, nrsan):
        bare = np.random.default_rng(42)
        audited = nrsan.audit_rng(np.random.default_rng(42))
        assert isinstance(audited, AuditedGenerator)
        assert audited.random() == bare.random()
        assert np.array_equal(audited.integers(0, 100, 10),
                              bare.integers(0, 100, 10))
        assert np.array_equal(audited.normal(0, 1, 5), bare.normal(0, 1, 5))

    def test_draw_trips_inside_stage(self, nrsan):
        audited = nrsan.audit_rng(np.random.default_rng(0))
        with nrsan.parallel_stage_scope("dci"):
            with pytest.raises(SanitizerViolation):
                audited.random()
        # Outside the scope the same proxy draws again.
        assert 0.0 <= audited.random() < 1.0

    def test_scope_is_thread_local(self, nrsan):
        import threading

        audited = nrsan.audit_rng(np.random.default_rng(0))
        results = {}

        def other_thread():
            try:
                results["value"] = audited.random()
            except SanitizerViolation as exc:  # pragma: no cover
                results["error"] = exc

        with nrsan.parallel_stage_scope("dci"):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert "value" in results and "error" not in results


class TestRuntimeIntegration:
    """The dynamic R006/R007 catch: an impure parallel stage fails at
    commit."""

    def _runtime(self, nrsan, stage_fn):
        return SlotRuntime(
            stages=[Stage("decode", stage_fn, parallel=True)],
            sanitizer=nrsan)

    def test_tracked_mutation_in_parallel_stage_is_caught(self):
        """The violation bad_stage.py seeds for static R006 fails on
        structure alone: the snapshot holds no TrackedUe to touch and
        rejects item assignment, so no sanitizer is needed."""
        sniffer = make_sniffer(0x4601)
        ue = sniffer.tracked[0x4601]

        def touch_ue(ctx):
            ctx.tracked[ue.rnti].touch(9.9)

        def replace_ue(ctx):
            ctx.tracked[ue.rnti] = ue

        for bad_stage, cause in ((touch_ue, AttributeError),
                                 (replace_ue, TypeError)):
            runtime = self._runtime(None, bad_stage)
            ctx = SlotContext(output=None)
            ctx.tracked = sniffer.space_snapshot()
            with pytest.raises(SlotRuntimeError) as excinfo:
                runtime.submit(ctx)
                runtime.flush()
            assert isinstance(excinfo.value.__cause__, cause)
        assert ue.last_seen_s == 0.0
        assert sniffer.tracked == {ue.rnti: ue}

    def test_rng_draw_in_parallel_stage_is_caught(self, nrsan):
        audited = nrsan.audit_rng(np.random.default_rng(0))

        def bad_stage(ctx):
            audited.random()

        runtime = self._runtime(nrsan, bad_stage)
        with pytest.raises(SlotRuntimeError):
            runtime.submit(SlotContext(output=None))
            runtime.flush()

    def test_pure_stage_passes(self, nrsan):
        seen = []

        def good_stage(ctx):
            seen.append(sorted(ctx.tracked))

        runtime = self._runtime(nrsan, good_stage)
        ctx = SlotContext(output=None)
        ctx.tracked = make_sniffer(5).space_snapshot()
        runtime.submit(ctx)
        runtime.flush()
        assert seen == [[5]]
        assert nrsan.violations == []


class TestScopeIntegration:
    def _session(self, sanitizer=None, seconds=0.5, seed=5):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=seed)
        scope = NRScope.attach(sim, snr_db=20.0,
                               **({"sanitizer": sanitizer}
                                  if sanitizer is not None else {}))
        sim.run(seconds=seconds)
        scope.flush()
        return scope

    def test_instrumented_session_is_clean_and_identical(self, nrsan):
        """The production pipeline passes its own runtime audit, and
        instrumentation does not perturb telemetry."""
        bare = self._session()
        instrumented = self._session(sanitizer=nrsan)
        assert nrsan.violations == []
        assert instrumented.counters.dcis_decoded > 0
        assert [r for r in instrumented.telemetry.records] \
            == [r for r in bare.telemetry.records]

    def test_process_executor_session_stays_clean(self, nrsan):
        """The audit holds across the process boundary too: the parent
        half of a ProcessExecutor session (payload packing, result
        merge, commit) runs instrumented and stays violation-free, with
        telemetry identical to the bare inline session."""
        bare = self._session()
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=5)
        scope = NRScope.attach(sim, snr_db=20.0, sanitizer=nrsan,
                               executor="process:2",
                               queue_depth=8192, idle_timeout_s=5.0)
        sim.run(seconds=0.5)
        scope.close()
        assert nrsan.violations == []
        assert scope.runtime_stats.slots_dropped == 0
        assert [r for r in scope.telemetry.records] \
            == [r for r in bare.telemetry.records]

    def test_scope_snapshot_is_read_only_without_nrsan(self):
        """What the scope hands its DCI stage with nrsan off: a mapping
        that rejects item assignment, holding the tracked UEs' frozen
        search spaces."""
        seen = []

        class SpyScope(NRScope):
            def _stage_dci(self, ctx):
                seen.append(ctx.tracked)
                super()._stage_dci(ctx)

        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=5)
        scope = SpyScope.attach(sim, snr_db=20.0,
                                sanitizer=Sanitizer(enabled=False))
        sim.run(seconds=0.5)
        scope.flush()
        snapshot = seen[-1]
        assert sorted(snapshot) == scope.tracked_rntis != []
        with pytest.raises(TypeError):
            snapshot[scope.tracked_rntis[0]] = None
        for rnti, space in snapshot.items():
            assert isinstance(space, SearchSpace)
            assert type(space).__dataclass_params__.frozen
            assert space is scope.rach.tracked[rnti].search_space
